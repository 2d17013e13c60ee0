//! The metric catalogue and the result a run prints.
//!
//! Every workload reports every metric of the catalogue: a layer a
//! workload does not exercise reads 0 there, set explicitly with
//! [`Results::none`], so a metric left out by mistake is a bug that
//! stops the run instead of a silent zero.

use lookahead_obs::json::JsonObject;
use std::collections::BTreeMap;

/// A metric's name and unit as `BENCHMARK.json` declares them.
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit }
}

/// What a user of the driver or the service sees, measured untraced.
pub const END_TO_END: [Def; 5] = [
    def("setup_s", "s"),
    def("latency_p50_ms", "ms"),
    def("latency_tail_ms", "ms"),
    def("throughput_per_s", "1/s"),
    def("peak_rss_mib", "MiB"),
];

/// One layer each, measured in the traced run. Names are the span
/// names of OBSERVABILITY.md plus a quantity.
pub const PER_LAYER: [Def; 45] = [
    def("generate.s", "s"),
    def("generate.instructions", "count"),
    def("generate.mp_cycles", "cycles"),
    def("generate.minstr_per_s", "Minstr/s"),
    def("archive.finish.s", "s"),
    def("archive.bytes", "bytes"),
    def("archive.open.s", "s"),
    def("decode.s", "s"),
    def("decode.mentries_per_s", "Mentries/s"),
    def("cache.lookup.s", "s"),
    def("cache.hits", "count"),
    def("cache.misses", "count"),
    def("retime.cell.base.s", "s"),
    def("retime.cell.ssbr.s", "s"),
    def("retime.cell.ss.s", "s"),
    def("retime.cell.ds.s", "s"),
    def("retime.cell.ds.minstr_per_s", "Minstr/s"),
    def("retime.cell.solo_sum.s", "s"),
    def("retime.cells", "count"),
    def("retime.sim_cycles", "cycles"),
    def("retime.gang.s", "s"),
    def("retime.gang.share", "ratio"),
    def("gang.peak_ring", "chunks"),
    def("dag.schedule.s", "s"),
    def("dag.run.s", "s"),
    def("dag.busy_s", "s"),
    def("dag.idle_frac", "ratio"),
    def("dag.critical_path_s", "s"),
    def("dag.peak_ready", "count"),
    def("render.s", "s"),
    def("queue.ms.p50", "ms"),
    def("queue.ms.p99", "ms"),
    def("parse.ms.p50", "ms"),
    def("handler.ms.p50", "ms"),
    def("handler.ms.p99", "ms"),
    def("write.ms.p50", "ms"),
    def("reactor.events_per_req", "count"),
    def("flight.memo_ratio", "ratio"),
    def("flight.led", "count"),
    def("run.generations", "count"),
    def("loadgen.sent", "count"),
    def("loadgen.late_ms.p99", "ms"),
    def("obs.overhead_pct", "%"),
    def("ledger.unattributed_frac", "ratio"),
    def("ledger.wall_s", "s"),
];

/// Everything one run measured and checked.
#[derive(Default)]
pub struct Results {
    values: BTreeMap<&'static str, f64>,
    /// Operations attempted and failed (sweeps or requests, checks
    /// included), feeding `error_rate`.
    pub attempted: u64,
    pub failed: u64,
    /// Named output checks beyond per-operation ones.
    checks: Vec<(String, bool)>,
    /// Human-readable lines printed before the JSON result.
    pub lines: Vec<String>,
}

impl Results {
    /// Records `name = value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records that this workload does not exercise these layers.
    pub fn none(&mut self, names: &[&'static str]) {
        for &n in names {
            self.set(n, 0.0);
        }
    }

    /// A recorded value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Counts one operation; a failed one also becomes a line.
    pub fn op(&mut self, ok: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = ok {
            self.failed += 1;
            self.lines.push(format!("FAILED: {e}"));
        }
    }

    /// Records a named output check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        let name = name.into();
        let verdict = if ok { "check passed" } else { "CHECK FAILED" };
        self.lines.push(format!("{verdict}: {name}"));
        self.checks.push((name, ok));
    }

    /// Adds a human-readable line.
    pub fn line(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// Whether every operation and check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Failed operations over attempted ones.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result object: `correct`, `attempted`, `failed` and the
    /// catalogue's metrics. A failed run reports the metrics it never
    /// reached as `null`; a correct run missing one is a bug, returned
    /// as an error naming the metric.
    pub fn result_json(&self, defs: &[Def]) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(defs.len());
        for d in defs {
            let v = match self.get(d.name) {
                Some(v) => v,
                None if !self.correct() => f64::NAN,
                None => return Err(format!("metric {} was never recorded", d.name)),
            };
            metrics.push((d, v));
        }
        Ok(JsonObject::render(|o| {
            o.bool("correct", self.correct())
                .u64("attempted", self.attempted)
                .u64("failed", self.failed)
                .object("metrics", |m| {
                    for (d, v) in &metrics {
                        m.object(d.name, |e| {
                            e.f64("value", *v).str("unit", d.unit);
                        });
                    }
                });
        }))
    }

    /// Every recorded value and check, for the run's ledger file.
    pub fn detail_json(&self) -> String {
        JsonObject::render(|o| {
            o.object("values", |m| {
                for (k, v) in &self.values {
                    m.f64(k, *v);
                }
            })
            .object("checks", |c| {
                for (k, ok) in &self.checks {
                    c.bool(k, *ok);
                }
            })
            .f64("error_rate", self.error_rate())
            .array("lines", |a| {
                for l in &self.lines {
                    a.str(l);
                }
            });
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_requires_every_catalogue_metric() {
        let mut r = Results::default();
        r.set("setup_s", 1.5);
        assert!(r.result_json(&END_TO_END).is_err());
        for d in &END_TO_END {
            r.set(d.name, 2.0);
        }
        let json = r.result_json(&END_TO_END).expect("complete");
        assert!(json.starts_with("{\"correct\":true,\"attempted\":0,\"failed\":0,"));
        assert!(json.contains("\"setup_s\":{\"value\":2,\"unit\":\"s\"}"));
    }

    #[test]
    fn a_failed_operation_makes_the_run_incorrect() {
        let mut r = Results::default();
        r.op(Ok(()));
        r.op(Err("report bytes differ".into()));
        assert_eq!((r.attempted, r.failed), (2, 1));
        assert!(!r.correct());
        assert_eq!(r.error_rate(), 0.5);
        // Metrics a failed run never reached print as null.
        let json = r
            .result_json(&END_TO_END)
            .expect("a failed run still reports");
        assert!(json.starts_with("{\"correct\":false,\"attempted\":2,\"failed\":1,"));
        assert!(json.contains("\"setup_s\":{\"value\":null,\"unit\":\"s\"}"));
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", d.name, d.unit);
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let names = text.matches("\"name\":").count();
        let workloads = text.matches("\"why\":").count();
        assert_eq!(names, END_TO_END.len() + PER_LAYER.len() + workloads);
    }
}
