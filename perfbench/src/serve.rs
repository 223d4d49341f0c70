//! `serve-open`: an in-process `xring_serve::Server` on loopback (one
//! engine worker, `max_inflight` 2) driven by an open-loop generator in
//! the same process on a seeded arrival schedule.
//!
//! Request mix, over nine fixed hot floorplans (irregular or grid, one
//! per N in 8–16): repeated specs (cache hits, pre-warmed in set-up),
//! fresh specs that miss the cache and synthesize, 4-job `/batch`
//! requests of fresh specs, and bodies the protocol rejects today (bad
//! JSON, an unknown network, over `MAX_NODES`), which must return their
//! 4xx.
//!
//! Two defects are left out on purpose, because they make a handler run
//! without bound and would stall the run (or exhaust memory) instead of
//! measuring it:
//! - an irregular spec whose N exceeds the die's cells hangs the handler
//!   (the bounded-work item of the roadmap);
//! - a `/synth` whose ring must be solved, right after a `/synth` of
//!   another floorplan with the same N, warm-starts the ring MILP from
//!   that floorplan's basis, and `RingBuilder::build` can then allocate
//!   without bound (for example `irregular 13/9000/14443009763151`
//!   followed by `irregular 13/9000/12322530101069`).
//!
//! So no `/synth` ever solves a ring: the hot floorplans are warmed in
//! ascending N (no two in a row share N), and a fresh spec keeps a hot
//! floorplan and asks for a fresh traffic pattern, which `/synth` serves
//! by replaying the ring from the phase store and recomputing mapping
//! onwards. In `/batch` the same fresh specs are synthesized cold, MILP
//! included, with no warm start.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use xring_serve::json::{self, Json};
use xring_serve::{ServeConfig, Server};

use xring_core::Traffic;

use crate::catalogue::{die_um, WAVELENGTHS};
use crate::layers::{import_obs, obs_counters, LayerPass, Recorder};
use crate::result::{ratio, Outcome};
use crate::stats::{mean, median, Rng};
use crate::{latency_metrics, quality_metrics, Quality, SETUP_REPEATS};

/// Nominal arrival rate, requests per second (Poisson arrivals).
pub const NOMINAL_RPS: f64 = 150.0;
/// Latency limit on the tail at every ladder rate.
pub const LIMIT_MS: f64 = 50.0;
/// Ratio between adjacent rates on the goodput ladder (3% apart).
pub const LADDER_RATIO: f64 = 1.03;
/// Highest ladder index: `NOMINAL_RPS * LADDER_RATIO^128` ≈ 44× nominal.
pub const LADDER_TOP: usize = 128;
/// Client give-up time; a timeout is a failed request.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(10);
/// Hot floorplans: one irregular floorplan per N in 8..=16.
const HOT_SPECS: usize = 9;
/// Requests in each sequential traced pass.
const TRACED_REQUESTS: usize = 300;

/// What a request is and what it must get back.
#[derive(Debug, Clone, PartialEq)]
pub enum Kind {
    /// A pre-warmed spec: 200 from the cache. Carries the hot index
    /// and the number of signals the design must route.
    Hit(usize, usize),
    /// A hot floorplan with a fresh traffic pattern: 200, synthesized
    /// from the ring onwards. Carries the signals to route.
    Miss(usize),
    /// Four fresh floorplans in one `/batch`: 200, each synthesized
    /// cold. Carries each job's signals to route.
    Batch(Vec<usize>),
    /// A rejected body: this status with this error code.
    Reject(u16, &'static str),
}

#[derive(Debug, Clone)]
pub struct Planned {
    pub due_s: f64,
    pub path: &'static str,
    pub body: String,
    pub kind: Kind,
}

/// A hot floorplan: one per N in 8..=16, grids where a small regular
/// one exists.
#[derive(Debug, Clone, Copy)]
enum Floorplan {
    Irregular { n: usize, seed: u64 },
    Grid { rows: usize, cols: usize },
}

/// Pitch of the hot grids.
const GRID_PITCH_UM: i64 = 2000;

impl Floorplan {
    fn n(self) -> usize {
        match self {
            Floorplan::Irregular { n, .. } => n,
            Floorplan::Grid { rows, cols } => rows * cols,
        }
    }

    fn net_json(self) -> String {
        match self {
            Floorplan::Irregular { n, seed } => format!(
                "{{\"irregular\":{{\"n\":{n},\"die_um\":{},\"seed\":{seed}}}}}",
                die_um(n)
            ),
            Floorplan::Grid { rows, cols } => format!(
                "{{\"grid\":{{\"rows\":{rows},\"cols\":{cols},\"pitch_um\":{GRID_PITCH_UM}}}}}"
            ),
        }
    }

    fn net(self) -> xring_core::NetworkSpec {
        match self {
            Floorplan::Irregular { n, seed } => {
                xring_core::NetworkSpec::irregular(n, die_um(n), seed)
            }
            Floorplan::Grid { rows, cols } => {
                xring_core::NetworkSpec::regular_grid(rows, cols, GRID_PITCH_UM)
            }
        }
        .expect("hot floorplans are valid")
    }

    /// A `/synth` body for this floorplan; `traffic` is a JSON traffic
    /// value, or empty for the all-to-all default.
    fn body(self, traffic: &str) -> String {
        let traffic = if traffic.is_empty() {
            String::new()
        } else {
            format!(",\"traffic\":{traffic}")
        };
        format!(
            "{{\"net\":{},\"options\":{{\"max_wavelengths\":{WAVELENGTHS}{traffic}}}}}",
            self.net_json()
        )
    }
}

/// The hot floorplans, in ascending N (the warm-up order). They are
/// fixed, like the other workloads' catalogues; the seed draws the
/// traffic patterns asked of them and the order of the requests.
fn hot_floorplans() -> Vec<Floorplan> {
    (8..8 + HOT_SPECS)
        .map(|n| match n {
            8 => Floorplan::Grid { rows: 2, cols: 4 },
            9 => Floorplan::Grid { rows: 3, cols: 3 },
            12 => Floorplan::Grid { rows: 3, cols: 4 },
            16 => Floorplan::Grid { rows: 4, cols: 4 },
            n => Floorplan::Irregular {
                n,
                seed: 3000 + n as u64,
            },
        })
        .collect()
}

/// A hot floorplan's all-to-all body and its signal count.
fn hot_spec(f: Floorplan) -> (String, usize) {
    (f.body(""), f.n() * (f.n() - 1))
}

/// Draws fresh traffic patterns for the hot floorplans; a body never
/// repeats within one generator.
struct Fresh {
    rng: Rng,
    hot: Vec<Floorplan>,
    used: BTreeSet<String>,
}

impl Fresh {
    fn new(seed: u64, stream: u64) -> Self {
        let hot = hot_floorplans();
        Fresh {
            rng: Rng::new(seed, stream),
            used: hot.iter().map(|&f| hot_spec(f).0).collect(),
            hot,
        }
    }

    /// A random hot floorplan with a fresh traffic pattern, and the
    /// number of signals it demands.
    fn next(&mut self) -> (String, usize) {
        let f = self.rng.below(self.hot.len());
        self.on(f)
    }

    /// Hot floorplan `f` with a fresh traffic pattern (a seeded
    /// permutation or hot-spot set, or k nearest neighbours), and the
    /// number of signals it demands.
    fn on(&mut self, f: usize) -> (String, usize) {
        let f = self.hot[f];
        loop {
            let (json, traffic) = match self.rng.below(5) {
                0 | 1 => {
                    let seed = self.rng.next_u64() >> 24;
                    (
                        format!("{{\"permutation\":{{\"seed\":{seed}}}}}"),
                        Traffic::Permutation { seed },
                    )
                }
                2 | 3 => {
                    let (hotspots, seed) = (1 + self.rng.below(3), self.rng.next_u64() >> 24);
                    (
                        format!("{{\"hotspot\":{{\"hotspots\":{hotspots},\"seed\":{seed}}}}}"),
                        Traffic::Hotspot { hotspots, seed },
                    )
                }
                _ => {
                    let k = 2 + self.rng.below(5);
                    (format!("{{\"knn\":{k}}}"), Traffic::NearestNeighbors(k))
                }
            };
            let body = f.body(&json);
            if self.used.insert(body.clone()) {
                return (body, traffic.pairs(&f.net()).len());
            }
        }
    }
}

/// A seeded open-loop schedule at `rps` for `seconds`.
pub fn schedule(seed: u64, stream: u64, rps: f64, seconds: f64) -> Vec<Planned> {
    let mut rng = Rng::new(seed, stream);
    let hot: Vec<(String, usize)> = hot_floorplans().into_iter().map(hot_spec).collect();
    let mut fresh = Fresh::new(seed, stream ^ 0xF7E5);
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.unit()).ln() / rps;
        if t >= seconds {
            return out;
        }
        let roll = rng.below(100);
        let (path, body, kind) = match roll {
            0..=59 => {
                let h = rng.below(HOT_SPECS);
                ("/synth", hot[h].0.clone(), Kind::Hit(h, hot[h].1))
            }
            60..=86 => {
                let (body, signals) = fresh.next();
                ("/synth", body, Kind::Miss(signals))
            }
            87..=91 => {
                // One job on each of the four largest hot floorplans, so
                // every batch costs about the same (its MILP solves do not
                // depend on the traffic pattern).
                let jobs: Vec<(String, usize)> =
                    (HOT_SPECS - 4..HOT_SPECS).map(|f| fresh.on(f)).collect();
                let body = format!(
                    "{{\"jobs\":[{}]}}",
                    jobs.iter()
                        .map(|j| j.0.as_str())
                        .collect::<Vec<_>>()
                        .join(",")
                );
                (
                    "/batch",
                    body,
                    Kind::Batch(jobs.iter().map(|j| j.1).collect()),
                )
            }
            92..=94 => (
                "/synth",
                "{\"net\": {\"named\": \"proton_8\"".to_owned(),
                Kind::Reject(400, "bad_json"),
            ),
            95..=97 => (
                "/synth",
                "{\"net\":{\"named\":\"mesh_99\"}}".to_owned(),
                Kind::Reject(422, "unknown_network"),
            ),
            _ => (
                "/synth",
                Floorplan::Grid { rows: 20, cols: 20 }.body(""),
                Kind::Reject(422, "network_too_large"),
            ),
        };
        out.push(Planned {
            due_s: t,
            path,
            body,
            kind,
        });
    }
}

/// One HTTP/1.1 exchange, `Connection: close`, with timeouts. Returns
/// `(status, x-request-id, body)`.
fn exchange(addr: SocketAddr, path: &str, body: &str) -> std::io::Result<(u16, String, String)> {
    let mut s = TcpStream::connect_timeout(&addr, CLIENT_TIMEOUT)?;
    s.set_read_timeout(Some(CLIENT_TIMEOUT))?;
    s.set_write_timeout(Some(CLIENT_TIMEOUT))?;
    s.set_nodelay(true)?;
    let head = format!(
        "POST {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    s.write_all(head.as_bytes())?;
    s.write_all(body.as_bytes())?;
    let mut raw = String::new();
    s.read_to_string(&mut raw)?;
    let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed response");
    let (head, body) = raw.split_once("\r\n\r\n").ok_or_else(bad)?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(bad)?;
    let id = head
        .lines()
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.eq_ignore_ascii_case("x-request-id"))
        .map(|(_, v)| v.trim().to_owned())
        .unwrap_or_default();
    Ok((status, id, body.to_owned()))
}

/// One request as the generator saw it; times in seconds from the
/// schedule's start.
#[derive(Debug, Clone)]
pub struct Sample {
    pub index: usize,
    pub sent_s: f64,
    pub done_s: f64,
    pub reply: Result<(u16, String, String), String>,
}

/// Runs `plan` open loop from `threads` generator threads: each takes
/// the next request in due order, waits until it is due, sends it and
/// waits for the reply. Returns the samples (in plan order) and the
/// largest backlog seen: requests already due but not yet sent.
pub fn run_open(addr: SocketAddr, plan: &[Planned], threads: usize) -> (Vec<Sample>, usize) {
    let next = AtomicUsize::new(0);
    let backlog = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::with_capacity(plan.len()));
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                let Some(p) = plan.get(i) else { return };
                let due = Duration::from_secs_f64(p.due_s);
                let now = t0.elapsed();
                if now < due {
                    std::thread::sleep(due - now);
                }
                let sent_s = t0.elapsed().as_secs_f64();
                let due_by_now = plan.partition_point(|q| q.due_s <= sent_s);
                backlog.fetch_max(due_by_now.saturating_sub(i + 1), Ordering::Relaxed);
                let reply = exchange(addr, p.path, &p.body).map_err(|e| e.to_string());
                let done_s = t0.elapsed().as_secs_f64();
                samples
                    .lock()
                    .expect("a generator thread panicked holding the sample list")
                    .push(Sample {
                        index: i,
                        sent_s,
                        done_s,
                        reply,
                    });
            });
        }
    });
    let mut samples = samples
        .into_inner()
        .expect("a generator thread panicked holding the sample list");
    samples.sort_by_key(|s| s.index);
    (samples, backlog.into_inner())
}

/// Whether the generator fell behind for good during a step: the
/// least-squares slope of send lag over due time, across the step,
/// adds up to more than half the latency limit. A single stall bends
/// the fit little; a queue that grows without bound raises it steadily.
pub fn backlog_growing(points: &[(f64, f64)], limit_ms: f64) -> bool {
    if points.len() < 2 {
        return false;
    }
    let n = points.len() as f64;
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = points.iter().map(|p| (p.0 - mx).powi(2)).sum();
    if sxx == 0.0 {
        return false;
    }
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let span = points.iter().map(|p| p.0).fold(f64::MIN, f64::max)
        - points.iter().map(|p| p.0).fold(f64::MAX, f64::min);
    sxy / sxx * span > limit_ms / 2.0
}

/// The fields of a 200 `/synth` reply the checks read.
#[derive(Debug, Clone, PartialEq)]
struct Served {
    cache_hit: bool,
    phases_reused: f64,
    wl: usize,
    il: f64,
    power: f64,
    noisy: usize,
    signals: usize,
}

fn served(doc: &Json) -> Result<Served, String> {
    let num = |v: Option<&Json>, what: &str| v.and_then(Json::as_f64).ok_or(format!("no {what}"));
    if doc
        .get("audit")
        .and_then(|a| a.get("clean"))
        .and_then(Json::as_bool)
        != Some(true)
    {
        return Err("audit not clean".to_owned());
    }
    let r = doc.get("report").ok_or("no report")?;
    Ok(Served {
        cache_hit: doc
            .get("cache_hit")
            .and_then(Json::as_bool)
            .ok_or("no cache_hit")?,
        phases_reused: num(doc.get("phases_reused"), "phases_reused")?,
        wl: num(r.get("num_wavelengths"), "num_wavelengths")? as usize,
        il: num(r.get("worst_il_db"), "worst_il_db")?,
        power: num(r.get("total_power_w"), "total_power_w")?,
        noisy: r
            .get("noisy_signal_count")
            .and_then(Json::as_usize)
            .unwrap_or(0),
        signals: num(r.get("signal_count"), "signal_count")? as usize,
    })
}

/// Checks one served design against the signals its spec demands.
fn check_served(s: &Served, signals: usize) -> Result<(), String> {
    if s.wl > WAVELENGTHS {
        return Err(format!("{} wavelengths over the budget", s.wl));
    }
    if s.signals != signals {
        return Err(format!("{} signals routed, {signals} demanded", s.signals));
    }
    Ok(())
}

/// Checks a reply against what its request must get back. Returns the
/// designs it served (a batch serves four).
fn verify(
    p: &Planned,
    reply: &Result<(u16, String, String), String>,
) -> Result<Vec<Served>, String> {
    let (status, _, body) = reply.as_ref().map_err(|e| format!("client error: {e}"))?;
    let (signals, want_hit) = match &p.kind {
        Kind::Reject(want, code) => {
            if status != want || !body.contains(&format!("\"code\":\"{code}\"")) {
                return Err(format!("expected {want} {code}, got {status}"));
            }
            return Ok(Vec::new());
        }
        Kind::Batch(signals) => (signals.clone(), false),
        Kind::Hit(_, n) => (vec![*n], true),
        Kind::Miss(n) => (vec![*n], false),
    };
    if *status != 200 {
        return Err(format!("expected 200, got {status}"));
    }
    let doc = json::parse(body).map_err(|e| format!("reply is not JSON: {e}"))?;
    let replies: Vec<&Json> = match doc.get("results").and_then(Json::as_arr) {
        Some(results) => results.iter().collect(),
        None => vec![&doc],
    };
    if replies.len() != signals.len() {
        return Err(format!(
            "{} designs served for {} jobs",
            replies.len(),
            signals.len()
        ));
    }
    let mut designs = Vec::with_capacity(replies.len());
    for (r, &n) in replies.into_iter().zip(&signals) {
        let s = served(r)?;
        check_served(&s, n)?;
        if s.cache_hit != want_hit {
            return Err(format!(
                "cache_hit {} where {want_hit} was expected",
                s.cache_hit
            ));
        }
        designs.push(s);
    }
    Ok(designs)
}

fn config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        max_inflight: 2,
        flight_capacity: 1 << 16,
        tail_capacity: 8,
        ..ServeConfig::default()
    }
}

/// Starts a server and warms the hot set into its cache. Returns the
/// server and the hot set's served designs.
fn start(out: &mut Outcome) -> (Server, Vec<Option<Served>>) {
    let server = Server::start(config()).expect("binding 127.0.0.1 for the in-process server");
    let hot = hot_floorplans()
        .into_iter()
        .map(hot_spec)
        .map(|(body, n)| {
            let reply = exchange(server.addr(), "/synth", &body);
            let checked = match &reply {
                Ok((200, _, b)) => json::parse(b)
                    .map_err(|e| e.to_string())
                    .and_then(|d| served(&d))
                    .and_then(|s| check_served(&s, n).map(|()| s)),
                Ok((status, _, _)) => Err(format!("status {status}")),
                Err(e) => Err(e.to_string()),
            };
            checked
                .map_err(|e| out.fail(format!("serve hot spec {body}: {e}")))
                .ok()
        })
        .collect();
    (server, hot)
}

/// Facts of one evaluated open-loop pass.
#[derive(Debug, Default)]
struct OpenPass {
    latency_ms: Vec<f64>,
    failures: Vec<String>,
    lag_points: Vec<(f64, f64)>,
    backlog_max: usize,
    shed: usize,
    status_4xx: usize,
    /// Sums over answered requests with a flight record, ms.
    gen_lag_ms: f64,
    queue_ms: f64,
    handler_ms: f64,
    transport_ms: f64,
}

impl OpenPass {
    fn tail_ms(&self) -> f64 {
        crate::stats::tail(&self.latency_ms).map_or(f64::INFINITY, |t| t.1)
    }

    /// A ladder step passes when nothing failed, the tail meets the
    /// limit and the backlog did not grow.
    fn meets_limit(&self) -> bool {
        self.failures.is_empty()
            && self.tail_ms() <= LIMIT_MS
            && !backlog_growing(&self.lag_points, LIMIT_MS)
    }
}

fn open_pass(server: &Server, plan: &[Planned], hot: &[Option<Served>]) -> OpenPass {
    let (samples, backlog_max) = run_open(server.addr(), plan, crate::host::nproc());
    let flight: BTreeMap<String, (u64, u64)> = server
        .flight()
        .snapshot()
        .into_iter()
        .map(|r| (r.id, (r.queue_us, r.wall_us)))
        .collect();
    let mut p = OpenPass {
        backlog_max,
        ..OpenPass::default()
    };
    for s in &samples {
        let planned = &plan[s.index];
        let lag_ms = (s.sent_s - planned.due_s) * 1e3;
        p.lag_points.push((planned.due_s, lag_ms));
        if let Ok((status, id, _)) = &s.reply {
            if *status == 429 {
                p.shed += 1;
            }
            if (400..500).contains(status) {
                p.status_4xx += 1;
            }
            if let Some(&(q, h)) = flight.get(id) {
                let rtt_ms = (s.done_s - s.sent_s) * 1e3;
                let (q, h) = (q as f64 / 1e3, h as f64 / 1e3);
                p.gen_lag_ms += lag_ms;
                p.queue_ms += q;
                p.handler_ms += h;
                p.transport_ms += rtt_ms - q - h;
            }
        }
        match verify(planned, &s.reply) {
            Ok(v) => {
                p.latency_ms.push((s.done_s - planned.due_s) * 1e3);
                if let Kind::Hit(h, _) = planned.kind {
                    if let (Some(want), Some(got)) = (&hot[h], v.first()) {
                        let same = Served {
                            cache_hit: want.cache_hit,
                            phases_reused: want.phases_reused,
                            ..got.clone()
                        };
                        if &same != want {
                            p.failures.push(format!(
                                "request {}: cache hit differs from the design first served",
                                s.index
                            ));
                        }
                    }
                }
            }
            Err(e) => {
                // A failed request misses any latency limit.
                p.latency_ms.push(f64::INFINITY);
                p.failures
                    .push(format!("request {} ({}): {e}", s.index, planned.path));
            }
        }
    }
    p
}

fn ladder_rate(k: usize) -> f64 {
    NOMINAL_RPS * LADDER_RATIO.powi(k as i32)
}

pub fn timed(seed: u64, seconds: f64, out: &mut Outcome) {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let (server, hot) = start(out);
        let plan = schedule(seed, 0, NOMINAL_RPS, 0.4 * seconds);
        setups.push(t.elapsed().as_secs_f64());
        state = Some((server, hot, plan));
    }
    out.set("setup_s", median(&setups));
    let (mut server, hot, plan) = state.expect("at least one setup");

    // Nominal rate.
    out.attempted += plan.len() as u64;
    let nominal = open_pass(&server, &plan, &hot);
    server.shutdown();
    // Memory of set-up and the nominal pass; the ladder steps after it
    // cache a load-dependent number of designs.
    out.set("peak_rss_mb", crate::host::peak_rss_mb());
    latency_metrics(out, &nominal.latency_ms);
    for f in &nominal.failures {
        out.fail(format!("nominal: {f}"));
    }
    // Quality over the hot set: the same nine designs whatever the seed,
    // so the sums compare across seeds; the fresh designs are checked
    // above but vary with the seeded traffic patterns.
    let mut quality = Quality::default();
    for d in hot.iter().flatten() {
        quality.add_served(d.wl, d.il, d.power);
    }
    quality_metrics(out, &quality);
    out.note("nominal_rps", NOMINAL_RPS);
    out.note("nominal_requests", plan.len());
    out.note("latency_limit_ms", LIMIT_MS);

    // Goodput: the highest ladder rate that meets the limit. A short
    // closed-loop burst first measures the saturation rate C; the search
    // then bisects the ladder between 0.5·C (taken to meet the limit)
    // and 1.15·C, on a fresh server per step with the hot set warmed.
    let c = saturation(seed, out);
    out.note("saturation_rps", c);
    let index = |rate: f64| (rate / NOMINAL_RPS).ln() / LADDER_RATIO.ln();
    let mut lo = None;
    if nominal.meets_limit() && c > 0.0 {
        let mut lo_k = (index(0.5 * c).floor().max(0.0) as usize).min(LADDER_TOP);
        let mut hi = (index(1.15 * c).ceil().max(0.0) as usize).min(LADDER_TOP) + 1;
        lo = Some(lo_k);
        let step_s = 0.08 * seconds;
        while hi - lo_k > 1 {
            let k = (lo_k + hi) / 2;
            // A step that misses is run once more: the rate misses only
            // if both attempts miss, so one slow moment of a shared host
            // does not decide the search.
            let ok = (0..2).any(|attempt| {
                let (mut server, hot) = start(out);
                let plan = schedule(seed, k as u64 + 1, ladder_rate(k), step_s);
                let step = open_pass(&server, &plan, &hot);
                server.shutdown();
                let ok = step.meets_limit();
                out.note(
                    &format!("ladder_{k:03}_{attempt}"),
                    format!(
                        "{:.1} rps: tail {:.2} ms, backlog max {}, {} failed -> {}",
                        ladder_rate(k),
                        step.tail_ms(),
                        step.backlog_max,
                        step.failures.len(),
                        if ok { "meets" } else { "misses" }
                    ),
                );
                ok
            });
            if ok {
                lo_k = k;
                lo = Some(k);
            } else {
                hi = k;
            }
        }
    }
    match lo {
        Some(k) => out.set("throughput_per_s", ladder_rate(k)),
        None => out.fail("goodput: the nominal rate misses the latency limit"),
    }
    out.note(
        "throughput",
        "goodput: highest ladder rate meeting the tail limit",
    );
}

/// Requests per second the server completes when the generator's
/// threads send back to back (a closed loop): the saturation rate.
fn saturation(seed: u64, out: &mut Outcome) -> f64 {
    const BURST: usize = 3000;
    let (mut server, _) = start(out);
    let plan: Vec<Planned> = schedule(seed, 0x5A7, 1e6, 1.0)
        .into_iter()
        .take(BURST)
        .map(|p| Planned { due_s: 0.0, ..p })
        .collect();
    let t = Instant::now();
    let (samples, _) = run_open(server.addr(), &plan, crate::host::nproc());
    let wall = t.elapsed().as_secs_f64();
    server.shutdown();
    let ok = samples
        .iter()
        .filter(|s| verify(&plan[s.index], &s.reply).is_ok())
        .count();
    ratio(ok as f64, wall)
}

/// Serve-layer metrics of a workload that never enters the serve layer.
pub fn idle_serve_layer(out: &mut Outcome) {
    for name in [
        "serve.queue_share",
        "serve.handler_share",
        "serve.transport_share",
        "serve.gen_lag_share",
        "serve.shed",
        "serve.status_4xx_frac",
        "serve.backlog_max",
    ] {
        out.set(name, 0.0);
    }
}

/// One sequential pass and the engine facts read beside its layers.
struct SeqPass {
    pass: LayerPass,
    rec: Recorder,
    cache_hit_frac: f64,
    phase_reuse_frac: f64,
    engine_share: f64,
}

/// One sequential pass (one request at a time, in plan order) over a
/// fresh server: the order the handlers see is fixed, so the solver's
/// work repeats exactly.
fn sequential_pass(plan: &[Planned], trace: bool, out: &mut Outcome) -> SeqPass {
    let (mut server, _) = start(out);
    let mut pass = LayerPass::default();
    let mut rec = Recorder::default();
    let mut reuse = Vec::new();
    let mut hits = 0usize;
    let mut engine_ns = 0u64;
    for (i, p) in plan.iter().enumerate() {
        out.attempted += 1;
        if trace {
            xring_obs::start();
        }
        let op = rec.begin(i, "op");
        let reply = exchange(server.addr(), p.path, &p.body).map_err(|e| e.to_string());
        pass.wall_ns += rec.end(op);
        pass.ops += 1;
        if trace {
            // The handler's layers run on server threads behind HTTP: read
            // the program's own spans (every one closes before the reply
            // is written).
            let t = xring_obs::finish();
            import_obs(&mut rec, i, op, &t, |_| true);
            for (k, v) in obs_counters(&t) {
                *pass.counters.entry(k).or_default() += v;
            }
            engine_ns += t.inclusive_ns("resynthesize") + t.inclusive_ns("batch");
        }
        match verify(p, &reply) {
            Ok(v) => {
                for d in &v {
                    pass.noisy_signals += d.noisy as u64;
                    if !d.cache_hit {
                        pass.wl_used += d.wl as u64;
                    }
                }
                if let (Kind::Hit(..) | Kind::Miss(_), Some(d)) = (&p.kind, v.first()) {
                    if d.cache_hit {
                        hits += 1;
                    } else {
                        reuse.push(d.phases_reused / 5.0);
                    }
                }
            }
            Err(e) => out.fail(format!("sequential request {i}: {e}")),
        }
    }
    server.shutdown();
    pass.add_spans(&rec);
    SeqPass {
        cache_hit_frac: ratio(hits as f64, (hits + reuse.len()) as f64),
        phase_reuse_frac: mean(&reuse),
        engine_share: ratio(engine_ns as f64, pass.wall_ns as f64),
        pass,
        rec,
    }
}

/// The traced run: an open-loop pass at the nominal rate for the serve
/// layer's own numbers (flight recorder, generator), then an untraced
/// and two traced sequential passes over the schedule's first requests
/// for the pipeline layers and exact counts.
pub fn traced(seed: u64, seconds: f64, out: &mut Outcome) -> Recorder {
    let (mut server, hot) = start(out);
    let plan = schedule(seed, 0, NOMINAL_RPS, 0.3 * seconds);
    out.attempted += plan.len() as u64;
    let open = open_pass(&server, &plan, &hot);
    server.shutdown();
    for f in &open.failures {
        out.fail(format!("nominal: {f}"));
    }
    let due_total = open.gen_lag_ms + open.queue_ms + open.handler_ms + open.transport_ms;
    out.set("serve.gen_lag_share", ratio(open.gen_lag_ms, due_total));
    out.set("serve.queue_share", ratio(open.queue_ms, due_total));
    out.set("serve.handler_share", ratio(open.handler_ms, due_total));
    out.set("serve.transport_share", ratio(open.transport_ms, due_total));
    let answered = plan.len() as f64;
    for (key, v) in [
        ("serve.gen_lag_ms_mean", open.gen_lag_ms),
        ("serve.queue_ms_mean", open.queue_ms),
        ("serve.handler_ms_mean", open.handler_ms),
        ("serve.transport_ms_mean", open.transport_ms),
    ] {
        out.note(key, ratio(v, answered));
    }
    out.set("serve.shed", open.shed as f64);
    out.set(
        "serve.status_4xx_frac",
        ratio(open.status_4xx as f64, answered),
    );
    out.set("serve.backlog_max", open.backlog_max as f64);

    let seq = &plan[..plan.len().min(TRACED_REQUESTS)];
    let untraced = sequential_pass(seq, false, out);
    let first = sequential_pass(seq, true, out);
    let second = sequential_pass(seq, true, out);
    crate::compare_counts(&first.pass, &second.pass, out);
    first.pass.fill(out);
    crate::trace_overhead(out, &first.pass, &second.pass, untraced.pass.wall_ns);
    out.set("engine.cache_hit_frac", first.cache_hit_frac);
    out.set("engine.phase_reuse_frac", first.phase_reuse_frac);
    out.set("engine.resynth_share", first.engine_share);
    out.set("engine.warm_cold_mismatches", 0.0);
    first.rec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_lag_is_not_a_growing_backlog() {
        let pts: Vec<(f64, f64)> = (0..500)
            .map(|i| {
                (
                    i as f64 * 0.004,
                    0.3 + 0.2 * ((i * 7919) % 13) as f64 / 13.0,
                )
            })
            .collect();
        assert!(!backlog_growing(&pts, LIMIT_MS));
    }

    #[test]
    fn linearly_rising_lag_is_a_growing_backlog() {
        // 120 ms of lag accumulated over a 2 s step.
        let pts: Vec<(f64, f64)> = (0..500)
            .map(|i| (i as f64 * 0.004, i as f64 * 0.24))
            .collect();
        assert!(backlog_growing(&pts, LIMIT_MS));
    }

    #[test]
    fn one_stall_is_not_a_growing_backlog() {
        // A 40 ms stall in the middle of the step that drains again.
        let pts: Vec<(f64, f64)> = (0..500)
            .map(|i| {
                let lag = if (240..250).contains(&i) {
                    40.0 - 4.0 * (i - 240) as f64
                } else {
                    0.5
                };
                (i as f64 * 0.004, lag)
            })
            .collect();
        assert!(!backlog_growing(&pts, LIMIT_MS));
    }

    #[test]
    fn degenerate_steps_never_count_as_growing() {
        assert!(!backlog_growing(&[], LIMIT_MS));
        assert!(!backlog_growing(&[(1.0, 900.0)], LIMIT_MS));
        assert!(!backlog_growing(&[(1.0, 0.0), (1.0, 900.0)], LIMIT_MS));
    }

    #[test]
    fn schedule_is_seeded_and_keeps_its_mix() {
        let a = schedule(9, 0, 200.0, 20.0);
        let b = schedule(9, 0, 200.0, 20.0);
        assert_eq!(a.len(), b.len());
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.body == y.body && x.due_s == y.due_s));
        assert!(a.windows(2).all(|w| w[0].due_s <= w[1].due_s));
        let share = |f: &dyn Fn(&Kind) -> bool| {
            a.iter().filter(|p| f(&p.kind)).count() as f64 / a.len() as f64
        };
        assert!((share(&|k| matches!(k, Kind::Hit(..))) - 0.60).abs() < 0.05);
        assert!((share(&|k| matches!(k, Kind::Reject(..))) - 0.08).abs() < 0.03);
        // Fresh specs never repeat.
        let fresh: Vec<&str> = a
            .iter()
            .filter(|p| matches!(p.kind, Kind::Miss(_)))
            .map(|p| p.body.as_str())
            .collect();
        let unique: BTreeSet<&str> = fresh.iter().copied().collect();
        assert_eq!(unique.len(), fresh.len());
    }
}
