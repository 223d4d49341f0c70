//! `cold-synth`: one `Synthesizer::synthesize` at a time on seeded
//! irregular floorplans (N 24–48, all-to-all, `#wl` 16, exact MILP ring,
//! one solver thread).

use std::time::Instant;

use xring_core::design::realize;
use xring_core::{
    audit_design, design_pdn, map_signals_with_traffic, open_rings, plan_shortcuts,
    DegradationLevel, Provenance, RingBuilder, SynthesisError, SynthesisOptions, Synthesizer,
    XRingDesign,
};
use xring_phot::{CrosstalkParams, LossParams, PowerParams, RouterReport};

use crate::catalogue::{cold_rounds, ColdInput, WAVELENGTHS};
use crate::check::{check_design, Pinned};
use crate::layers::{import_obs, obs_counters, LayerPass, Recorder};
use crate::result::Outcome;
use crate::stats::median;
use crate::{latency_metrics, quality_metrics, Quality, SETUP_REPEATS};

/// Nominal wall of one round on a 2-vCPU Xeon host; sets how
/// many rounds a run of `--seconds` makes, so the work per run depends
/// on `--seconds` only, never on the host's speed.
const ROUND_S: f64 = 10.0;

pub fn options() -> SynthesisOptions {
    SynthesisOptions::with_wavelengths(WAVELENGTHS).with_solver_threads(1)
}

pub fn evaluate(design: &XRingDesign) -> RouterReport {
    design.report(
        "XRing",
        &LossParams::default(),
        Some(&CrosstalkParams::default()),
        &PowerParams::default(),
    )
}

/// Builds the inputs and warms the allocator and code paths with one
/// synthesis. Returns the rounds.
fn setup(seed: u64, rounds: usize) -> Vec<Vec<ColdInput>> {
    let rounds = cold_rounds(seed, rounds);
    for c in rounds.iter().flatten() {
        std::hint::black_box(c.net());
    }
    // Warm up on the smallest catalogue design, whatever the seed.
    let warm = crate::catalogue::cold_all()[0].net();
    Synthesizer::new(options())
        .synthesize(&warm)
        .expect("catalogue floorplans synthesize");
    rounds
}

pub fn rounds_for(seconds: f64) -> usize {
    ((seconds / ROUND_S).round() as usize).max(1)
}

pub fn timed(seed: u64, seconds: f64, pinned: &Pinned, out: &mut Outcome) {
    let n_rounds = rounds_for(seconds);
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut rounds = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        rounds = setup(seed, n_rounds);
        setups.push(t.elapsed().as_secs_f64());
    }
    out.set("setup_s", median(&setups));

    let synth = Synthesizer::new(options());
    let mut lat_ms = Vec::new();
    let mut quality = Quality::default();
    for c in rounds.iter().flatten() {
        out.attempted += 1;
        let net = c.net();
        let t = Instant::now();
        let result = synth.synthesize(&net);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok(design) => {
                lat_ms.push(ms);
                let report = evaluate(&design);
                for bad in check_design(&c.key(), &design, &report, &options().traffic, pinned) {
                    out.fail(bad);
                }
                quality.add(&report);
            }
            Err(e) => out.fail(format!("{}: {e}", c.key())),
        }
    }
    latency_metrics(out, &lat_ms);
    let busy_s: f64 = lat_ms.iter().sum::<f64>() / 1e3;
    out.set("throughput_per_s", lat_ms.len() as f64 / busy_s);
    out.note("throughput", "designs per second of synthesis wall");
    quality_metrics(out, &quality);
}

/// The pipeline replayed through the public phase functions, in the
/// order `Synthesizer` runs them, each timed as its layer.
fn replay(
    rec: &mut Recorder,
    op: usize,
    net: &xring_core::NetworkSpec,
    o: &SynthesisOptions,
) -> Result<(XRingDesign, RouterReport), SynthesisError> {
    let t0 = Instant::now();
    let ring = rec.time(op, "ring.build", || {
        RingBuilder::new()
            .with_algorithm(o.ring_algorithm)
            .with_lp_backend(o.lp_backend)
            .with_solver_threads(o.solver_threads)
            .with_pricing(o.pricing)
            .with_factorization(o.factorization)
            .build(net)
    })?;
    let shortcuts = rec.time(op, "shortcut", || plan_shortcuts(net, &ring.cycle));
    let mut plan = rec.time(op, "mapping", || {
        map_signals_with_traffic(
            net,
            &ring.cycle,
            &shortcuts,
            &o.traffic,
            o.max_wavelengths,
            o.max_waveguides,
        )
    })?;
    let opening_stats = rec.time(op, "opening", || {
        open_rings(&ring.cycle, &mut plan, o.max_wavelengths)
    });
    let pdn = rec.time(op, "pdn", || {
        design_pdn(net, &ring.cycle, &plan, &shortcuts, &o.loss, o.laser)
    });
    let layout = rec.time(op, "realize", || {
        realize(net, &ring.cycle, &shortcuts, &plan, Some(&pdn), o.spacing)
    });
    let mut design = XRingDesign {
        net: net.clone(),
        cycle: ring.cycle,
        shortcuts,
        plan,
        pdn: Some(pdn),
        layout,
        ring_stats: ring.stats,
        opening_stats,
        elapsed: t0.elapsed(),
        provenance: Provenance::default(),
    };
    let audit = rec.time(op, "audit", || audit_design(&design, &o.traffic, &o.loss));
    design.provenance = Provenance {
        degradation: DegradationLevel::Exact,
        fallback_reason: None,
        audit,
    };
    let report = rec.time(op, "eval", || evaluate(&design));
    Ok((design, report))
}

/// One traced pass: its layer accounting and its spans.
#[derive(Default)]
struct Pass {
    layers: LayerPass,
    rec: Recorder,
}

impl Pass {
    /// Replays input `c` as operation `i`, traced, and checks the design
    /// against `reference` (the `Synthesizer::synthesize` text of the
    /// same input).
    fn step(
        &mut self,
        i: usize,
        c: &ColdInput,
        reference: Option<&str>,
        pinned: &Pinned,
        out: &mut Outcome,
    ) {
        let o = options();
        let (pass, rec) = (&mut self.layers, &mut self.rec);
        out.attempted += 1;
        let net = c.net();
        xring_obs::start();
        let op = rec.begin(i, "op");
        let result = replay(rec, i, &net, &o);
        pass.wall_ns += rec.end(op);
        let trace = xring_obs::finish();
        // Inside `RingBuilder::build` no public call splits the solver
        // from the sub-cycle merge: read the program's own spans there.
        import_obs(rec, i, op, &trace, |l| {
            matches!(l, "milp.solve" | "ring.merge")
        });
        for (k, v) in obs_counters(&trace) {
            *pass.counters.entry(k).or_default() += v;
        }
        pass.ops += 1;
        match result {
            Ok((design, report)) => {
                pass.wl_used += design.plan.wavelengths_used() as u64;
                pass.noisy_signals += report.noisy_signal_count.unwrap_or(0) as u64;
                for bad in check_design(&c.key(), &design, &report, &o.traffic, pinned) {
                    out.fail(bad);
                }
                if reference != Some(design.describe().as_str()) {
                    out.fail(format!(
                        "{}: traced replay is not byte-identical to Synthesizer::synthesize",
                        c.key()
                    ));
                }
            }
            Err(e) => out.fail(format!("{} (replay): {e}", c.key())),
        }
    }

    fn finish(mut self) -> Self {
        self.layers.add_spans(&self.rec);
        self
    }
}

/// The traced run over the seed's first round: each input runs through
/// `Synthesizer::synthesize` untraced (the reference design and the
/// wall the tracing overhead is measured from), then twice through the
/// traced replay. Interleaving the three per input keeps slow drifts of
/// the host's speed out of the overhead. Returns the first traced
/// pass's spans.
pub fn traced(seed: u64, pinned: &Pinned, out: &mut Outcome) -> Recorder {
    let inputs = setup(seed, 1).remove(0);
    let synth = Synthesizer::new(options());
    let mut untraced_ns = 0u64;
    let (mut first, mut second) = (Pass::default(), Pass::default());
    for (i, c) in inputs.iter().enumerate() {
        out.attempted += 1;
        let net = c.net();
        let t = Instant::now();
        let result = synth.synthesize(&net);
        untraced_ns += t.elapsed().as_nanos() as u64;
        let reference = match result {
            Ok(d) => Some(d.describe()),
            Err(e) => {
                out.fail(format!("{}: {e}", c.key()));
                None
            }
        };
        first.step(i, c, reference.as_deref(), pinned, out);
        second.step(i, c, reference.as_deref(), pinned, out);
    }
    let (first, second) = (first.finish(), second.finish());
    crate::compare_counts(&first.layers, &second.layers, out);
    first.layers.fill(out);
    crate::trace_overhead(out, &first.layers, &second.layers, untraced_ns);
    for name in [
        "engine.cache_hit_frac",
        "engine.phase_reuse_frac",
        "engine.resynth_share",
        "engine.warm_cold_mismatches",
    ] {
        out.set(name, 0.0);
    }
    crate::serve::idle_serve_layer(out);
    first.rec
}
