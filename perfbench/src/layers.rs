//! Per-layer accounting for the traced passes.
//!
//! Layers are timed from outside: [`Recorder`] keeps the benchmark's own
//! spans in memory around each call into a layer's public function and
//! writes them out when the run ends. Where no public call splits a
//! layer (inside `RingBuilder::build`, `Engine::resynthesize` or a serve
//! handler), the program's existing `xring_obs` spans and counters are
//! read instead.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::result::{ratio, Outcome};

/// One span: which operation it belongs to, its layer, the span that
/// caused it, and when it ran (ns since the recorder started).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    pub op: usize,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, op: usize, name: &'static str) -> usize {
        let rec = SpanRec {
            op,
            name,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            dur_ns: 0,
        };
        self.spans.push(rec);
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes span `idx` (the innermost open one); returns its length.
    pub fn end(&mut self, idx: usize) -> u64 {
        assert_eq!(self.open.pop(), Some(idx), "spans close innermost first");
        let dur = self.now_ns() - self.spans[idx].start_ns;
        self.spans[idx].dur_ns = dur;
        dur
    }

    /// Times `f` as span `name` of operation `op`.
    pub fn time<T>(&mut self, op: usize, name: &'static str, f: impl FnOnce() -> T) -> T {
        let idx = self.begin(op, name);
        let out = f();
        self.end(idx);
        out
    }

    /// Records a span measured elsewhere (a program span read back from
    /// `xring_obs`) as a child of span `parent`.
    pub fn add(&mut self, op: usize, name: &'static str, parent: usize, dur_ns: u64) {
        let rec = SpanRec {
            op,
            name,
            parent: Some(parent),
            start_ns: self.now_ns().saturating_sub(dur_ns),
            dur_ns,
        };
        self.spans.push(rec);
    }

    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Writes the spans as JSONL, one span per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{id},\"op\":{},\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"dur_ns\":{}}}",
                s.op,
                s.name,
                s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string()),
                s.start_ns,
                s.dur_ns
            )?;
        }
        out.flush()
    }
}

/// Layer names: the benchmark's own spans and the `xring_obs` span each
/// maps from. `ring.build` encloses `milp.solve` and `ring.merge`; the
/// other layers are disjoint.
pub const LAYERS: &[(&str, &str)] = &[
    ("ring.build", "ring-milp"),
    ("milp.solve", "milp-solve"),
    ("ring.merge", "subcycle-merge"),
    ("shortcut", "shortcut"),
    ("mapping", "mapping"),
    ("opening", "opening"),
    ("pdn", "pdn"),
    ("realize", "realize"),
    ("audit", "audit"),
    ("eval", "evaluation"),
];

/// Layers whose sum is the attributed part of an operation's wall.
const TOP_LAYERS: &[&str] = &[
    "ring.build",
    "shortcut",
    "mapping",
    "opening",
    "pdn",
    "realize",
    "audit",
    "eval",
];

/// The layer a program span name stands for, if any.
pub fn layer_of_obs(name: &str) -> Option<&'static str> {
    LAYERS.iter().find(|(_, obs)| *obs == name).map(|(l, _)| *l)
}

/// Copies the program's spans of the layers `wanted` accepts out of a
/// drained `xring_obs` trace into `rec`, as children of operation `op`'s
/// span `parent`. A layer span inside another layer's span belongs to the
/// outer layer (the audit evaluates the design it checks) and is not
/// copied, except the solver and merge spans inside the ring build,
/// which the ring's self time subtracts.
pub fn import_obs(
    rec: &mut Recorder,
    op: usize,
    parent: usize,
    trace: &xring_obs::Trace,
    wanted: impl Fn(&str) -> bool,
) {
    let by_id: BTreeMap<u64, &xring_obs::SpanRecord> =
        trace.spans.iter().map(|s| (s.id, s)).collect();
    for s in &trace.spans {
        let Some(layer) = layer_of_obs(s.name).filter(|l| wanted(l)) else {
            continue;
        };
        let mut up = by_id.get(&s.parent);
        let mut nested = false;
        while let Some(a) = up {
            if let Some(outer) = layer_of_obs(a.name) {
                nested = !(outer == "ring.build" && matches!(layer, "milp.solve" | "ring.merge"));
                break;
            }
            up = by_id.get(&a.parent);
        }
        if !nested {
            rec.add(op, layer, parent, s.dur_ns);
        }
    }
}

/// The counter totals a traced pass reads from `xring_obs`.
pub fn obs_counters(trace: &xring_obs::Trace) -> BTreeMap<String, u64> {
    trace.totals.iter().cloned().collect()
}

/// Everything one traced pass measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerPass {
    /// Operations in the pass.
    pub ops: usize,
    /// Sum of operation walls, ns.
    pub wall_ns: u64,
    /// Layer → summed span time, ns.
    pub layer_ns: BTreeMap<&'static str, u64>,
    /// Program counter totals.
    pub counters: BTreeMap<String, u64>,
    /// Sum of `wavelengths_used` over the mappings the pass ran.
    pub wl_used: u64,
    /// Signals with crosstalk noise, over every design the pass made.
    pub noisy_signals: u64,
}

impl LayerPass {
    /// Sums a recorder's layer spans.
    pub fn add_spans(&mut self, rec: &Recorder) {
        for s in rec.spans() {
            if LAYERS.iter().any(|(l, _)| *l == s.name) {
                *self.layer_ns.entry(s.name).or_default() += s.dur_ns;
            }
        }
    }

    /// The exact part of the pass: counts that must repeat bit for bit
    /// between two traced passes over the same inputs.
    pub fn counts(&self) -> (usize, &BTreeMap<String, u64>, u64, u64) {
        (self.ops, &self.counters, self.wl_used, self.noisy_signals)
    }

    fn layer_ms(&self, layer: &str) -> f64 {
        let ns = self.layer_ns.get(layer).copied().unwrap_or(0) as f64;
        ratio(ns / 1e6, self.ops as f64)
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    /// Writes the milp, ring, pipeline-phase, unattributed and quality
    /// per-layer metrics into `out`.
    pub fn fill(&self, out: &mut Outcome) {
        let solve = self.layer_ms("milp.solve");
        let merge = self.layer_ms("ring.merge");
        let build = self.layer_ms("ring.build");
        out.set("milp.solve_ms", solve);
        out.set("ring.merge_ms", merge);
        out.set("ring.build_ms", build);
        out.set("ring.self_ms", build - solve - merge);
        for (metric, layer) in [
            ("shortcut.ms", "shortcut"),
            ("mapping.ms", "mapping"),
            ("opening.ms", "opening"),
            ("pdn.ms", "pdn"),
            ("realize.ms", "realize"),
            ("audit.ms", "audit"),
            ("eval.ms", "eval"),
        ] {
            out.set(metric, self.layer_ms(layer));
        }
        let attributed: f64 = TOP_LAYERS.iter().map(|l| self.layer_ms(l)).sum();
        let wall = ratio(self.wall_ns as f64 / 1e6, self.ops as f64);
        out.set("synth.unattributed_ms", wall - attributed);
        out.note("op_wall_mean_ms", wall);

        let nodes = self.counter("milp.nodes");
        let pivots = self.counter("simplex.pivots");
        let degenerate = self.counter("simplex.degenerate_pivots");
        let warm = self.counter("simplex.warm_starts");
        let cold = self.counter("simplex.cold_starts");
        out.set("milp.bnb_nodes", nodes);
        out.set("milp.lp_solves", self.counter("milp.lp_solves"));
        out.set("milp.pivots", pivots);
        out.set("milp.degenerate_pivots", degenerate);
        out.set("milp.degenerate_frac", ratio(degenerate, pivots));
        out.set(
            "milp.refactorizations",
            self.counter("simplex.refactorizations"),
        );
        out.set("milp.lazy_cuts", self.counter("milp.lazy_cuts"));
        out.set("milp.warm_start_frac", ratio(warm, warm + cold));
        out.set("milp.pivots_per_node", ratio(pivots, nodes));
        out.set(
            "ring.subcycles_merged",
            self.counter("ring.subcycles_merged"),
        );
        out.set("shortcut.candidates", self.counter("shortcut.candidates"));
        out.set("shortcut.selected", self.counter("shortcut.selected"));
        out.set("mapping.wl_used", self.wl_used as f64);
        out.set("quality.noisy_signals", self.noisy_signals as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-layer time metrics whose per-operation means, with
    /// `synth.unattributed_ms`, add up to the mean operation wall.
    const ADDITIVE: &[&str] = &[
        "milp.solve_ms",
        "ring.merge_ms",
        "ring.self_ms",
        "shortcut.ms",
        "mapping.ms",
        "opening.ms",
        "pdn.ms",
        "realize.ms",
        "audit.ms",
        "eval.ms",
        "synth.unattributed_ms",
    ];

    #[test]
    fn recorder_nests_and_times() {
        let mut rec = Recorder::default();
        let op = rec.begin(0, "op");
        rec.time(0, "mapping", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        rec.add(0, "milp.solve", op, 1_000);
        let wall = rec.end(op);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[1].dur_ns >= 2_000_000);
        assert!(wall >= spans[1].dur_ns);
    }

    /// Layer means plus `synth.unattributed_ms` sum to the mean
    /// operation wall, within 1%.
    #[test]
    fn layer_means_and_unattributed_sum_to_the_wall() {
        let mut rec = Recorder::default();
        let mut pass = LayerPass::default();
        for op in 0..3 {
            let o = rec.begin(op, "op");
            let ring = rec.begin(op, "ring.build");
            rec.time(op, "milp.solve", || busy(300));
            rec.time(op, "ring.merge", || busy(200));
            busy(100);
            rec.end(ring);
            for layer in [
                "shortcut", "mapping", "opening", "pdn", "realize", "audit", "eval",
            ] {
                rec.time(op, layer, || busy(50));
            }
            busy(150);
            pass.wall_ns += rec.end(o);
            pass.ops += 1;
        }
        pass.add_spans(&rec);
        let mut out = Outcome::default();
        pass.fill(&mut out);
        let sum: f64 = ADDITIVE.iter().map(|m| out.metrics[*m]).sum();
        let wall = pass.wall_ns as f64 / 1e6 / pass.ops as f64;
        assert!((sum - wall).abs() <= 0.01 * wall, "{sum} vs {wall}");
        assert!(out.metrics["ring.self_ms"] > 0.0);
        assert!(out.metrics["synth.unattributed_ms"] > 0.0);
    }

    #[test]
    fn obs_span_names_map_to_layers() {
        assert_eq!(layer_of_obs("evaluation"), Some("eval"));
        assert_eq!(layer_of_obs("ring-milp"), Some("ring.build"));
        assert_eq!(layer_of_obs("shortcut-gain"), None);
    }

    fn busy(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < u128::from(us) {
            std::hint::spin_loop();
        }
    }
}
