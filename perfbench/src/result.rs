//! Metric lists, the result line, and the full result file.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use xring_serve::json::{self, Json};

/// `(name, unit)` of every end-to-end metric, reported by every
/// workload from its untimed-tracing run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("wl_total", "count"),
    ("il_worst_db_mean", "dB"),
    ("power_w_total", "W"),
];

/// `(name, unit)` of every per-layer metric, reported by every
/// workload from its traced run (`--trace 1`). Times are per-operation
/// means of self time; counts are totals over the traced operations.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("milp.solve_ms", "ms"),
    ("milp.bnb_nodes", "count"),
    ("milp.lp_solves", "count"),
    ("milp.pivots", "count"),
    ("milp.degenerate_pivots", "count"),
    ("milp.degenerate_frac", "fraction"),
    ("milp.refactorizations", "count"),
    ("milp.lazy_cuts", "count"),
    ("milp.warm_start_frac", "fraction"),
    ("milp.pivots_per_node", "count"),
    ("ring.build_ms", "ms"),
    ("ring.merge_ms", "ms"),
    ("ring.self_ms", "ms"),
    ("ring.subcycles_merged", "count"),
    ("shortcut.ms", "ms"),
    ("shortcut.candidates", "count"),
    ("shortcut.selected", "count"),
    ("mapping.ms", "ms"),
    ("mapping.wl_used", "count"),
    ("opening.ms", "ms"),
    ("pdn.ms", "ms"),
    ("realize.ms", "ms"),
    ("audit.ms", "ms"),
    ("eval.ms", "ms"),
    ("synth.unattributed_ms", "ms"),
    ("engine.cache_hit_frac", "fraction"),
    ("engine.phase_reuse_frac", "fraction"),
    ("engine.resynth_share", "fraction"),
    ("engine.warm_cold_mismatches", "count"),
    ("serve.queue_share", "fraction"),
    ("serve.handler_share", "fraction"),
    ("serve.transport_share", "fraction"),
    ("serve.gen_lag_share", "fraction"),
    ("serve.shed", "count"),
    ("serve.status_4xx_frac", "fraction"),
    ("serve.backlog_max", "count"),
    ("obs.trace_overhead_frac", "fraction"),
    ("failed_frac", "fraction"),
    ("quality.noisy_signals", "count"),
];

/// `a / b`, or 0 when `b` is 0 (an idle layer, not an error).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The outcome of one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    pub attempted: u64,
    /// Operations that failed, returned an unexpected status, or
    /// produced a design that failed a check.
    pub failures: Vec<String>,
    /// Metric name → value; units come from the lists above.
    pub metrics: BTreeMap<String, f64>,
    /// Human-facing extras (sample counts, tail percentile, raw ms of
    /// the serve shares, host stamp); kept in the result file only.
    pub notes: BTreeMap<String, String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_owned(), value);
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.insert(key.to_owned(), value.to_string());
    }

    pub fn fail(&mut self, what: impl Into<String>) {
        self.failures.push(what.into());
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, the latter holding every metric of `list`.
    pub fn render_line(&self, list: &[(&str, &str)]) -> String {
        let failed = self.failures.len() as u64;
        let mut out = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            failed,
        );
        for (i, (name, unit)) in list.iter().enumerate() {
            let value = self.metrics.get(*name).copied().unwrap_or(f64::NAN);
            let _ = write!(
                out,
                "{}\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                if i == 0 { "" } else { "," },
                number(value),
            );
        }
        out.push_str("}}");
        out
    }

    /// Names of `list` metrics this outcome lacks or holds as a
    /// non-finite value.
    pub fn missing(&self, list: &[(&str, &str)]) -> Vec<String> {
        list.iter()
            .filter(|(n, _)| !self.metrics.get(*n).is_some_and(|v| v.is_finite()))
            .map(|(n, _)| (*n).to_owned())
            .collect()
    }

    /// The full result file: the line's content plus notes and the
    /// failure list.
    pub fn render_file(&self, list: &[(&str, &str)]) -> String {
        let mut out = String::from("{\n  \"result\": ");
        out.push_str(&self.render_line(list));
        out.push_str(",\n  \"notes\": {");
        for (i, (k, v)) in self.notes.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    \"{}\": \"{}\"",
                if i == 0 { "" } else { "," },
                xring_obs::json_escape(k),
                xring_obs::json_escape(v)
            );
        }
        out.push_str("\n  },\n  \"failures\": [");
        for (i, f) in self.failures.iter().enumerate() {
            let _ = write!(
                out,
                "{}\n    \"{}\"",
                if i == 0 { "" } else { "," },
                xring_obs::json_escape(f)
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// A number as measured, all digits kept; non-finite values (a metric
/// the run failed to produce) render as `null` so the line stays valid
/// JSON and the gap is visible.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// A parsed result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Line {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// name → (value, unit)
    pub metrics: BTreeMap<String, (f64, String)>,
}

/// Parses a result line.
#[cfg(test)]
pub fn parse_line(text: &str) -> Result<Line, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    line_from_json(&doc)
}

fn line_from_json(doc: &Json) -> Result<Line, String> {
    let obj = doc.as_obj().ok_or("result is not an object")?;
    let keys: Vec<&str> = obj.keys().map(String::as_str).collect();
    if keys != ["attempted", "correct", "failed", "metrics"] {
        return Err(format!("unexpected keys {keys:?}"));
    }
    let whole = |k: &str| {
        obj[k]
            .as_usize()
            .map(|v| v as u64)
            .ok_or(format!("\"{k}\" is not a whole number"))
    };
    let mut metrics = BTreeMap::new();
    for (name, m) in obj["metrics"].as_obj().ok_or("metrics is not an object")? {
        let value = m
            .get("value")
            .and_then(Json::as_f64)
            .ok_or(format!("{name}: value is not a number"))?;
        let unit = m
            .get("unit")
            .and_then(Json::as_str)
            .ok_or(format!("{name}: unit is not a string"))?;
        metrics.insert(name.clone(), (value, unit.to_owned()));
    }
    Ok(Line {
        correct: obj["correct"].as_bool().ok_or("correct is not a boolean")?,
        attempted: whole("attempted")?,
        failed: whole("failed")?,
        metrics,
    })
}

/// A result file: its line plus notes.
#[derive(Debug, Clone)]
pub struct ResultFile {
    pub line: Line,
    pub notes: BTreeMap<String, String>,
}

pub fn parse_file(text: &str) -> Result<ResultFile, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let line = line_from_json(doc.get("result").ok_or("no \"result\" member")?)?;
    let notes = doc
        .get("notes")
        .and_then(Json::as_obj)
        .map(|o| {
            o.iter()
                .filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_owned())))
                .collect()
        })
        .unwrap_or_default();
    Ok(ResultFile { line, notes })
}

/// Renders result files side by side: one column per file, one row per
/// metric. Ratios against the first column are printed only for files
/// stamped with the same host as the first; results from different
/// hosts are shown, never compared.
pub fn side_by_side(files: &[(String, ResultFile)]) -> String {
    let mut out = String::new();
    let Some((_, first)) = files.first() else {
        return out;
    };
    let host = |f: &ResultFile| f.notes.get("host").cloned().unwrap_or_default();
    for (i, (path, f)) in files.iter().enumerate() {
        let _ = writeln!(
            out,
            "[{i}] {path}: workload {} seed {} host {}{}",
            f.notes.get("workload").map_or("?", String::as_str),
            f.notes.get("seed").map_or("?", String::as_str),
            host(f),
            if i > 0 && host(f) != host(first) {
                "  (other host: shown, not compared)"
            } else {
                ""
            }
        );
    }
    let mut names: Vec<&String> = files
        .iter()
        .flat_map(|(_, f)| f.line.metrics.keys())
        .collect();
    names.sort();
    names.dedup();
    for name in names {
        let _ = write!(out, "{name:<28}");
        let base = first.line.metrics.get(name).map(|m| m.0);
        for (i, (_, f)) in files.iter().enumerate() {
            match f.line.metrics.get(name) {
                Some((v, unit)) => {
                    let _ = write!(out, " {v:>14.4} {unit:<8}");
                    if i > 0 && host(f) == host(first) {
                        if let Some(b) = base.filter(|b| *b != 0.0) {
                            let _ = write!(out, " x{:<7.3}", v / b);
                        }
                    }
                }
                None => {
                    let _ = write!(out, " {:>14} {:<8}", "-", "");
                }
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Outcome {
        let mut o = Outcome {
            attempted: 42,
            ..Outcome::default()
        };
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            o.set(name, 1.0 / (i as f64 + 3.0));
        }
        o.note("host", "nproc=2 cpu=\"x\"");
        o.note("workload", "cold-synth");
        o
    }

    #[test]
    fn result_line_round_trips_with_all_digits() {
        let o = sample();
        let line = o.render_line(END_TO_END);
        let parsed = parse_line(&line).expect("parses");
        assert!(parsed.correct);
        assert_eq!(parsed.attempted, 42);
        assert_eq!(parsed.failed, 0);
        assert_eq!(parsed.metrics.len(), END_TO_END.len());
        for (name, unit) in END_TO_END {
            let (v, u) = &parsed.metrics[*name];
            assert_eq!(*v, o.metrics[*name], "{name} lost digits");
            assert_eq!(u, unit);
        }
    }

    #[test]
    fn failures_make_the_line_incorrect() {
        let mut o = sample();
        o.fail("cold n=24 seed=1: digest");
        let parsed = parse_line(&o.render_line(END_TO_END)).expect("parses");
        assert!(!parsed.correct);
        assert_eq!(parsed.failed, 1);
    }

    #[test]
    fn missing_metrics_render_null_and_are_listed() {
        let mut o = sample();
        o.metrics.remove("tail_ms");
        assert_eq!(o.missing(END_TO_END), vec!["tail_ms".to_owned()]);
        assert!(o
            .render_line(END_TO_END)
            .contains("\"tail_ms\":{\"value\":null"));
        assert!(parse_line(&o.render_line(END_TO_END)).is_err());
    }

    #[test]
    fn result_file_round_trips_and_hosts_are_not_compared() {
        let a = sample();
        let mut b = sample();
        b.set("p50_ms", a.metrics["p50_ms"] * 2.0);
        b.note("host", "nproc=64 cpu=\"y\"");
        let fa = parse_file(&a.render_file(END_TO_END)).expect("file a");
        let fb = parse_file(&b.render_file(END_TO_END)).expect("file b");
        assert_eq!(fa.notes["workload"], "cold-synth");
        let same = side_by_side(&[("a".into(), fa.clone()), ("a2".into(), fa.clone())]);
        assert!(same.contains(" x1.000"));
        let cross = side_by_side(&[("a".into(), fa), ("b".into(), fb)]);
        assert!(cross.contains("other host"));
        assert!(!cross.contains(" x"), "cross-host ratio printed:\n{cross}");
    }

    #[test]
    fn ratio_of_idle_layer_is_zero() {
        assert_eq!(ratio(0.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = json::parse(text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m.get("name")
                            .and_then(Json::as_str)
                            .expect("name")
                            .to_owned(),
                        m.get("unit")
                            .and_then(Json::as_str)
                            .expect("unit")
                            .to_owned(),
                    )
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(END_TO_END));
        assert_eq!(names("per_layer"), own(PER_LAYER));
    }
}
