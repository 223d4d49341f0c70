//! `edit-loop`: a seeded sequence of edits of a few pre-synthesized
//! N=32–48 floorplans through `Engine::resynthesize` with one worker.

use std::time::Instant;

use xring_core::SynthesisOptions;
use xring_engine::{Engine, JobOutput, SynthesisJob};

use crate::catalogue::{
    edit_sequence, EditInput, EditKind, Variant, EDIT_BASES, MAX_EDIT_ROUNDS, ROUND_REVERTS,
    ROUND_TRAFFIC,
};
use crate::check::{check_design, Pinned};
use crate::layers::{import_obs, obs_counters, LayerPass, Recorder};
use crate::result::{ratio, Outcome};
use crate::stats::median;
use crate::{latency_metrics, quality_metrics, Quality, SETUP_REPEATS};

/// Nominal wall of one round (every base's mix once) on a 2-vCPU Xeon
/// host; sets the rounds per run from `--seconds` alone.
const ROUND_S: f64 = 1.5;

/// Phases an incremental run can replay (ring, shortcut, mapping,
/// opening, PDN).
const PHASES: f64 = 5.0;

pub fn options(input: &EditInput) -> SynthesisOptions {
    SynthesisOptions {
        traffic: input.traffic(),
        ..crate::cold::options()
    }
}

fn job(input: EditInput) -> SynthesisJob {
    SynthesisJob::new(input.key(), input.net(), options(&input))
}

/// The digest of every catalogued move as the edit loop makes it: on an
/// engine seeded with its base, warm-started from the base ring.
pub fn warm_moves() -> Result<Vec<Vec<u64>>, String> {
    (0..EDIT_BASES.len())
        .map(|base| {
            let engine = Engine::new().with_workers(1);
            let b = job(EditInput {
                base,
                variant: Variant::Base,
            });
            engine.resynthesize(&b, &b).map_err(|e| e.to_string())?;
            (0..crate::catalogue::MOVES_PER_BASE)
                .map(|k| {
                    let m = EditInput {
                        base,
                        variant: Variant::Move(k),
                    };
                    engine
                        .resynthesize(&b, &job(m))
                        .map(|o| crate::check::digest(&o.design))
                        .map_err(|e| format!("{}: {e}", m.warm_key()))
                })
                .collect()
        })
        .collect()
}

/// A fresh one-worker engine with every base synthesized cold into its
/// store. Returns the engine and each base's current job.
fn setup(pinned: &Pinned, out: &mut Outcome) -> (Engine, Vec<SynthesisJob>) {
    let engine = Engine::new().with_workers(1);
    let mut current = Vec::with_capacity(EDIT_BASES.len());
    for base in 0..EDIT_BASES.len() {
        let input = EditInput {
            base,
            variant: Variant::Base,
        };
        let j = job(input);
        match engine.resynthesize(&j, &j) {
            Ok(o) => {
                check(input, &j, &o, pinned, out);
            }
            Err(e) => out.fail(format!("{} (setup): {e}", input.key())),
        }
        current.push(j);
    }
    (engine, current)
}

/// Checks an edit's design. Returns whether it is a warm-started move
/// whose design differs from cold synthesis of the same spec (which
/// `Engine::resynthesize` documents as byte-identical).
fn check(
    input: EditInput,
    j: &SynthesisJob,
    o: &JobOutput,
    pinned: &Pinned,
    out: &mut Outcome,
) -> bool {
    let key = input.checked_key();
    for bad in check_design(&key, &o.design, &o.report, &j.options.traffic, pinned) {
        out.fail(bad);
    }
    matches!(input.variant, Variant::Move(_))
        && pinned.get(&input.key()) != Some(&crate::check::digest(&o.design))
}

/// Whether the engine took the path the edit asks for: reverts hit the
/// design cache, traffic edits replay ring and shortcut, moves re-solve.
fn expected_path(kind: EditKind, o: &JobOutput) -> bool {
    match kind {
        EditKind::Revert => o.cache_hit,
        EditKind::Traffic => !o.cache_hit && o.phases_reused == 2,
        EditKind::Move => !o.cache_hit,
    }
}

pub fn rounds_for(seconds: f64) -> usize {
    ((seconds / ROUND_S).round() as usize).clamp(1, MAX_EDIT_ROUNDS)
}

pub fn timed(seed: u64, seconds: f64, pinned: &Pinned, out: &mut Outcome) {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        state = Some(setup(pinned, out));
        setups.push(t.elapsed().as_secs_f64());
    }
    out.set("setup_s", median(&setups));
    let (engine, mut current) = state.expect("at least one setup");

    let seq = edit_sequence(seed, rounds_for(seconds));
    let mut lat_ms = Vec::with_capacity(seq.len());
    let mut quality = Quality::default();
    let mut mismatches = 0usize;
    for (kind, input) in seq {
        out.attempted += 1;
        let j = job(input);
        let prev = &current[input.base];
        let t = Instant::now();
        let result = engine.resynthesize(prev, &j);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok(o) => {
                lat_ms.push(ms);
                if !expected_path(kind, &o) {
                    out.fail(format!(
                        "{}: {kind:?} edit took the wrong path (cache hit {}, {} phases reused)",
                        input.key(),
                        o.cache_hit,
                        o.phases_reused
                    ));
                }
                mismatches += usize::from(check(input, &j, &o, pinned, out));
                if !o.cache_hit {
                    quality.add(&o.report);
                }
            }
            Err(e) => out.fail(format!("{}: {e}", input.key())),
        }
        current[input.base] = j;
    }
    latency_metrics(out, &lat_ms);
    let busy_s: f64 = lat_ms.iter().sum::<f64>() / 1e3;
    out.set("throughput_per_s", lat_ms.len() as f64 / busy_s);
    out.note("throughput", "edits per second of resynthesize wall");
    out.note("warm_cold_mismatches", mismatches);
    out.note(
        "edit_mix_per_base_round",
        format!("{ROUND_TRAFFIC} traffic, {ROUND_REVERTS} revert, 1 move"),
    );
    quality_metrics(out, &quality);
}

/// One pass over the traced edit sequence, on its own engine.
struct Lane {
    engine: Engine,
    current: Vec<SynthesisJob>,
    trace: bool,
    layers: LayerPass,
    rec: Recorder,
    hits: usize,
    reuse: Vec<f64>,
    engine_ns: u64,
    mismatches: usize,
}

impl Lane {
    fn new(trace: bool, pinned: &Pinned, out: &mut Outcome) -> Self {
        let (engine, current) = setup(pinned, out);
        Lane {
            engine,
            current,
            trace,
            layers: LayerPass::default(),
            rec: Recorder::default(),
            hits: 0,
            reuse: Vec::new(),
            engine_ns: 0,
            mismatches: 0,
        }
    }

    fn step(
        &mut self,
        i: usize,
        kind: EditKind,
        input: EditInput,
        pinned: &Pinned,
        out: &mut Outcome,
    ) {
        let (pass, rec) = (&mut self.layers, &mut self.rec);
        out.attempted += 1;
        let j = job(input);
        if self.trace {
            xring_obs::start();
        }
        let op = rec.begin(i, "op");
        let result = self.engine.resynthesize(&self.current[input.base], &j);
        pass.wall_ns += rec.end(op);
        pass.ops += 1;
        if self.trace {
            // No public call splits `Engine::resynthesize` into phases:
            // its layers come from the program's own spans.
            let t = xring_obs::finish();
            import_obs(rec, i, op, &t, |_| true);
            for (k, v) in obs_counters(&t) {
                *pass.counters.entry(k).or_default() += v;
            }
        }
        match result {
            Ok(o) => {
                self.engine_ns += o.wall.as_nanos() as u64;
                if o.cache_hit {
                    self.hits += 1;
                } else {
                    self.reuse.push(o.phases_reused as f64 / PHASES);
                    pass.wl_used += o.design.plan.wavelengths_used() as u64;
                }
                pass.noisy_signals += o.report.noisy_signal_count.unwrap_or(0) as u64;
                if !expected_path(kind, &o) {
                    out.fail(format!(
                        "{}: {kind:?} edit took the wrong path",
                        input.key()
                    ));
                }
                self.mismatches += usize::from(check(input, &j, &o, pinned, out));
            }
            Err(e) => out.fail(format!("{}: {e}", input.key())),
        }
        self.current[input.base] = j;
    }
}

/// The traced run over the seed's first round of edits, on three
/// engines stepped in turn: one untraced (the wall the tracing overhead
/// is measured from) and two traced. Interleaving them per edit keeps
/// slow drifts of the host's speed out of the overhead. Returns the
/// first traced lane's spans.
pub fn traced(seed: u64, pinned: &Pinned, out: &mut Outcome) -> Recorder {
    let seq = edit_sequence(seed, 1);
    let mut lanes = [
        Lane::new(false, pinned, out),
        Lane::new(true, pinned, out),
        Lane::new(true, pinned, out),
    ];
    for (i, &(kind, input)) in seq.iter().enumerate() {
        for lane in &mut lanes {
            lane.step(i, kind, input, pinned, out);
        }
    }
    let [untraced, mut first, mut second] = lanes;
    first.layers.add_spans(&first.rec);
    second.layers.add_spans(&second.rec);
    crate::compare_counts(&first.layers, &second.layers, out);
    first.layers.fill(out);
    crate::trace_overhead(out, &first.layers, &second.layers, untraced.layers.wall_ns);
    out.set(
        "engine.cache_hit_frac",
        ratio(first.hits as f64, first.layers.ops as f64),
    );
    out.set("engine.phase_reuse_frac", crate::stats::mean(&first.reuse));
    out.set(
        "engine.resynth_share",
        ratio(first.engine_ns as f64, first.layers.wall_ns as f64),
    );
    out.set("engine.warm_cold_mismatches", first.mismatches as f64);
    crate::serve::idle_serve_layer(out);
    first.rec
}
