//! The XRing benchmark: three workloads, end-to-end metrics from an
//! untraced run, per-layer metrics from a separate traced run.
//!
//! ```text
//! perfbench --workload <cold-synth|edit-loop|serve-open> --seed <n>
//!           --seconds <s> --trace <0|1>
//! perfbench --pin      # rewrite expected_digests.txt from cold synthesis
//! perfbench --show <result.json>...   # results side by side
//! ```
//!
//! The last line of standard output is the result line: `correct`,
//! `attempted`, `failed` and `metrics` (every end-to-end metric with
//! `--trace 0`, every per-layer metric with `--trace 1`). A human report
//! goes to standard error, and the full result (host stamp, sample
//! counts, tail percentile, every failure by name) to
//! `perfbench/out/<workload>-seed<n>-trace<t>.json`; a traced run also
//! writes its spans to `perfbench/out/<workload>-seed<n>-spans.jsonl`.
//! See `perfbench/README.md` for the workloads and seeds.

mod catalogue;
mod check;
mod cold;
mod edit;
mod host;
mod layers;
mod result;
mod serve;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use layers::LayerPass;
use result::{Outcome, END_TO_END, PER_LAYER};
use xring_phot::RouterReport;

/// Address-space cap for a run: about five times the largest run's peak
/// (serve-open, near 0.6 GB).
const ADDRESS_SPACE_CAP: u64 = 3 << 30;

/// Set-ups per timed run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// The default seed, and the held-out seed kept for confirming a later
/// claim on inputs that were not used while the change was written.
pub const DEFAULT_SEED: u64 = 1;
pub const HELD_OUT_SEED: u64 = 20261017;

/// Design-quality sums over the distinct designs a run produced.
#[derive(Debug, Default)]
pub struct Quality {
    designs: usize,
    wl_total: f64,
    il_sum: f64,
    power_total: f64,
}

impl Quality {
    pub fn add(&mut self, r: &RouterReport) {
        self.add_served(
            r.num_wavelengths,
            r.worst_il_db,
            r.total_power_w.unwrap_or(0.0),
        );
    }

    pub fn add_served(&mut self, wl: usize, il_db: f64, power_w: f64) {
        self.designs += 1;
        self.wl_total += wl as f64;
        self.il_sum += il_db;
        self.power_total += power_w;
    }
}

pub fn quality_metrics(out: &mut Outcome, q: &Quality) {
    out.set("wl_total", q.wl_total);
    out.set(
        "il_worst_db_mean",
        result::ratio(q.il_sum, q.designs as f64),
    );
    out.set("power_w_total", q.power_total);
    out.note("quality_designs", q.designs);
}

/// `p50_ms` and `tail_ms` of an operation-latency sample, with the
/// sample count and the tail's percentile recorded.
pub fn latency_metrics(out: &mut Outcome, lat_ms: &[f64]) {
    if lat_ms.is_empty() {
        return;
    }
    out.set("p50_ms", stats::median(lat_ms));
    out.note("latency_samples", lat_ms.len());
    match stats::tail(lat_ms) {
        Some((pct, v)) => {
            out.set("tail_ms", v);
            out.note("tail_percentile", format!("p{pct:.2}"));
        }
        None => out.fail(format!(
            "only {} latency samples: the tail needs 11",
            lat_ms.len()
        )),
    }
}

/// Per-layer counts and quality must repeat bit for bit between two
/// traced passes over the same inputs; drift is an error, not noise.
pub fn compare_counts(a: &LayerPass, b: &LayerPass, out: &mut Outcome) {
    if a.counts() == b.counts() {
        return;
    }
    let mut drift: Vec<String> = Vec::new();
    let names: std::collections::BTreeSet<&String> =
        a.counters.keys().chain(b.counters.keys()).collect();
    for k in names {
        let (x, y) = (a.counters.get(k), b.counters.get(k));
        if x != y {
            drift.push(format!("{k} {x:?} vs {y:?}"));
        }
    }
    if a.wl_used != b.wl_used {
        drift.push(format!("wl_used {} vs {}", a.wl_used, b.wl_used));
    }
    if a.noisy_signals != b.noisy_signals {
        drift.push(format!("noisy {} vs {}", a.noisy_signals, b.noisy_signals));
    }
    out.fail(format!(
        "count drift between traced passes: {}",
        drift.join(", ")
    ));
}

/// `obs.trace_overhead_frac`: the traced passes' mean wall over the
/// untraced pass's wall, minus one.
pub fn trace_overhead(out: &mut Outcome, a: &LayerPass, b: &LayerPass, untraced_ns: u64) {
    let traced = (a.wall_ns + b.wall_ns) as f64 / 2.0;
    out.set(
        "obs.trace_overhead_frac",
        result::ratio(traced, untraced_ns as f64) - 1.0,
    );
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 20.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["cold-synth", "edit-loop", "serve-open"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn run(args: &Args) -> Outcome {
    let pinned = check::parse_digests(check::EXPECTED_DIGESTS);
    let mut out = Outcome::default();
    for (k, v) in host::stamp() {
        out.note(k, v);
    }
    out.note("workload", &args.workload);
    out.note("seed", args.seed);
    out.note("held_out_seed", HELD_OUT_SEED);
    out.note("seconds", args.seconds);
    out.note("trace", u8::from(args.trace));
    if args.trace {
        let rec = match args.workload.as_str() {
            "cold-synth" => cold::traced(args.seed, &pinned, &mut out),
            "edit-loop" => edit::traced(args.seed, &pinned, &mut out),
            _ => serve::traced(args.seed, args.seconds, &mut out),
        };
        out.set(
            "failed_frac",
            out.failures.len() as f64 / out.attempted.max(1) as f64,
        );
        let spans = out_dir().join(format!("{}-seed{}-spans.jsonl", args.workload, args.seed));
        if let Err(e) = rec.write_jsonl(&spans) {
            eprintln!("perfbench: cannot write {}: {e}", spans.display());
        }
    } else {
        match args.workload.as_str() {
            "cold-synth" => cold::timed(args.seed, args.seconds, &pinned, &mut out),
            "edit-loop" => edit::timed(args.seed, args.seconds, &pinned, &mut out),
            _ => serve::timed(args.seed, args.seconds, &mut out),
        }
        if !out.metrics.contains_key("peak_rss_mb") {
            out.set("peak_rss_mb", host::peak_rss_mb());
        }
        let failed = out.failures.len() as f64 / out.attempted.max(1) as f64;
        out.note("failed_frac", failed);
    }
    out
}

/// Writes every catalogue design's `describe()` digest to
/// `expected_digests.txt`.
fn pin() -> Result<(), String> {
    let mut text = String::from(
        "# describe() digests (FNV-1a 64) of every catalogue design, from cold\n\
         # Synthesizer::synthesize; edit-loop moves also as the warm-started edit\n\
         # makes them (`... warm`). Regenerate with `perfbench --pin` only for an\n\
         # intended design change, and say so where the change is recorded.\n",
    );
    let synth = xring_core::Synthesizer::new(cold::options());
    for c in catalogue::cold_all() {
        let d = synth
            .synthesize(&c.net())
            .map_err(|e| format!("{}: {e}", c.key()))?;
        text.push_str(&format!("{}\t{:016x}\n", c.key(), check::digest(&d)));
    }
    for e in catalogue::edit_all() {
        let d = xring_core::Synthesizer::new(edit::options(&e))
            .synthesize(&e.net())
            .map_err(|err| format!("{}: {err}", e.key()))?;
        text.push_str(&format!("{}\t{:016x}\n", e.key(), check::digest(&d)));
    }
    // Moves are pinned a second time as the edit loop makes them: warm
    // started from the base ring's basis.
    for (base, warm) in edit::warm_moves()?.into_iter().enumerate() {
        for (k, digest) in warm.into_iter().enumerate() {
            let e = catalogue::EditInput {
                base,
                variant: catalogue::Variant::Move(k),
            };
            text.push_str(&format!("{}\t{digest:016x}\n", e.warm_key()));
        }
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("expected_digests.txt");
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn show(paths: &[String]) -> Result<(), String> {
    let mut files = Vec::new();
    for p in paths {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        files.push((
            p.clone(),
            result::parse_file(&text).map_err(|e| format!("{p}: {e}"))?,
        ));
    }
    print!("{}", result::side_by_side(&files));
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let done = |r: Result<(), String>| match r {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    };
    match argv.first().map(String::as_str) {
        Some("--pin") => return done(pin()),
        Some("--show") => return done(show(&argv[1..])),
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <cold-synth|edit-loop|serve-open> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    host::cap_address_space(ADDRESS_SPACE_CAP);
    let mut out = run(&args);
    let list = if args.trace { PER_LAYER } else { END_TO_END };
    for name in out.missing(list) {
        out.fail(format!("metric {name} was not produced"));
    }

    let path = out_dir().join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let file = out.render_file(list);
    if let Err(e) = std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, &file)) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    for (k, v) in &out.notes {
        eprintln!("  {k:<26} {v}");
    }
    for (name, unit) in list {
        eprintln!(
            "  {name:<26} {:>14.6} {unit}",
            out.metrics.get(*name).copied().unwrap_or(f64::NAN)
        );
    }
    for f in out.failures.iter().take(20) {
        eprintln!("  FAILED {f}");
    }
    if out.failures.len() > 20 {
        eprintln!(
            "  ... {} failures in all, listed in {}",
            out.failures.len(),
            path.display()
        );
    }
    println!("{}", out.render_line(list));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&argv(
            "--workload edit-loop --seed 7 --seconds 12 --trace 1",
        ))
        .expect("valid");
        assert_eq!(a.workload, "edit-loop");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 12.0);
        assert!(a.trace);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--seed 1",
            "--workload nope",
            "--workload cold-synth --trace 2",
            "--workload cold-synth --seconds 0",
            "--workload cold-synth --frobnicate",
            "--workload cold-synth --seed",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad} accepted");
        }
    }
}
