//! The metric tables and the result line.
//!
//! Every workload prints the same metric names, in the order below, so
//! runs of different workloads and commits line up. An untraced run
//! prints [`END_TO_END`]; a traced run prints [`PER_LAYER`]. A per-layer
//! metric of a layer the workload does not call reads 0.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// User-visible metrics, measured with tracing off: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_act_bytes", "bytes"),
    ("rss_peak_bytes", "bytes"),
    ("setup_s", "s"),
];

/// Metrics of single layers (crates), measured in the traced run.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("hw.fma_gflops", "GF/s"),
    ("hw.stream_gbps", "GB/s"),
    ("tensor.gemm_gflops", "GF/s"),
    ("tensor.gemm_peak_frac", "ratio"),
    ("tensor.gemm_fwd_gflops", "GF/s"),
    ("tensor.gemm_dgrad_gflops", "GF/s"),
    ("tensor.gemm_wgrad_gflops", "GF/s"),
    ("tensor.gemm_fwd_peak_frac", "ratio"),
    ("tensor.gemm_dgrad_peak_frac", "ratio"),
    ("tensor.gemm_wgrad_peak_frac", "ratio"),
    ("tensor.attn_fwd_us", "us"),
    ("tensor.attn_bwd_us", "us"),
    ("tensor.rmsnorm_us", "us"),
    ("tensor.silu_us", "us"),
    ("tensor.xent_us", "us"),
    ("tensor.arena_hit_rate", "ratio"),
    ("train.iter_overhead_ms", "ms"),
    ("train.sgd_ms", "ms"),
    ("train.busy_ms.s0", "ms"),
    ("train.busy_ms.s1", "ms"),
    ("train.idle_ms.s0", "ms"),
    ("train.idle_ms.s1", "ms"),
    ("train.idle_share.s0", "ratio"),
    ("train.idle_share.s1", "ratio"),
    ("train.f_us", "us"),
    ("train.b_us", "us"),
    ("train.w_us", "us"),
    ("train.drain_share", "ratio"),
    ("train.reference_ms", "ms"),
    ("comm.rendezvous_ms", "ms"),
    ("comm.msgs_per_iter", "count"),
    ("comm.bytes_per_iter", "bytes"),
    ("comm.serialize_ms", "ms"),
    ("comm.deserialize_ms", "ms"),
    ("comm.recv_wait_ms", "ms"),
    ("comm.send_stall_ms", "ms"),
    ("comm.retries", "count"),
    ("comm.rejected_checksums", "count"),
    ("trace.overhead", "ms"),
    ("trace.bubble_warmup_ms", "ms"),
    ("trace.bubble_comm_stall_ms", "ms"),
    ("trace.bubble_dependency_ms", "ms"),
    ("trace.bubble_tail_ms", "ms"),
    ("strategy.candidates", "count"),
    ("strategy.pre_discarded", "count"),
    ("strategy.bound_pruned", "count"),
    ("strategy.evaluated", "count"),
    ("strategy.eval_share", "ratio"),
    ("strategy.sched_cache_hit_rate", "ratio"),
    ("core.synth_generate_ms", "ms"),
    ("core.svpp_generate_ms", "ms"),
    ("schedule.generate_ms", "ms"),
    ("sim.simulate_ms", "ms"),
    ("sim.ops_per_s", "1/s"),
    ("model.cost_ms", "ms"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations issued in the measured loop.
    pub attempted: u64,
    /// Operations that failed: an error, a non-finite loss, a failed
    /// output check, or a plan without a MEPipe result.
    pub failed: u64,
    /// Output checks by name.
    pub checks: Vec<(String, bool)>,
    metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records metric `name`, which must be in one of the tables.
    ///
    /// # Panics
    ///
    /// Panics on a name in neither table: a bug in this program.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "metric {name} is in neither table");
        self.metrics.insert(name, value);
    }

    /// Records the outcome of an output check; a failed check also
    /// counts as a failed operation.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        let name = name.into();
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: output check failed: {name}");
        }
        self.checks.push((name, ok));
    }

    /// Whether every check passed and no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Records `rss_peak_bytes`: this process's VmHWM so far.
    pub fn set_rss_peak(&mut self) {
        let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
        let kb = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
        match kb {
            Some(kb) => self.set("rss_peak_bytes", kb * 1024.0),
            None => self.check("VmHWM readable from /proc/self/status", false),
        }
    }

    /// Whether every end-to-end metric was recorded.
    pub fn has_end_to_end(&self) -> bool {
        END_TO_END.iter().all(|(n, _)| self.metrics.contains_key(n))
    }

    /// Prints one human-readable line per metric of the run's table,
    /// then the JSON result as the last line of standard output, and
    /// returns its `correct` field.
    ///
    /// # Panics
    ///
    /// Panics if an end-to-end metric was not recorded: a bug in this
    /// program.
    pub fn print(&self, traced: bool) -> bool {
        let table: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut json = String::new();
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = match self.metrics.get(name) {
                Some(v) => *v,
                None if traced => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            // A non-finite value is not JSON; it reads as 0 and fails
            // the run's correctness instead.
            let value = if value.is_finite() { value } else { 0.0 };
            println!("metric {name} = {value} {unit}");
            let sep = if i == 0 { "" } else { ", " };
            write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("write to String");
        }
        for (name, ok) in &self.checks {
            println!("check {name}: {}", if *ok { "ok" } else { "FAILED" });
        }
        let correct = self.correct() && self.all_finite(table);
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.attempted.max(1),
            self.failed,
        );
        correct
    }

    fn all_finite(&self, table: &[(&str, &str)]) -> bool {
        table
            .iter()
            .all(|(n, _)| self.metrics.get(n).is_none_or(|v| v.is_finite()))
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tables and `BENCHMARK.json` at the repository root name the
    /// same metrics with the same units, in the same order.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let doc = serde_json::from_str(&text).expect("parse BENCHMARK.json");
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let expected: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, expected, "{key}");
        }
    }

    /// Every pairing in `predictions.json` names known metrics and
    /// workloads, and every per-layer metric has a prediction or is a
    /// same-run reference.
    #[test]
    fn predictions_name_known_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/predictions.json");
        let text = std::fs::read_to_string(path).expect("read predictions.json");
        let doc = serde_json::from_str(&text).expect("parse predictions.json");
        let names = |v: &serde_json::Value, key: &str| -> Vec<String> {
            v.get(key)
                .and_then(|l| l.as_array())
                .expect(key)
                .iter()
                .map(|x| x.as_str().expect("a name").to_string())
                .collect()
        };
        let mut covered = Vec::new();
        for p in doc
            .get("pairings")
            .and_then(|v| v.as_array())
            .expect("pairings")
        {
            for l in names(p, "layers") {
                assert!(
                    PER_LAYER.iter().any(|(n, _)| *n == l),
                    "unknown layer metric {l}"
                );
                covered.push(l);
            }
            for e in names(p, "end_to_end") {
                assert!(
                    END_TO_END.iter().any(|(n, _)| *n == e),
                    "unknown metric {e}"
                );
            }
            let w = p
                .get("workload")
                .and_then(|v| v.as_str())
                .expect("workload");
            assert!(
                ["fine_uds", "coarse_inproc", "plan_fig8"].contains(&w),
                "{w}"
            );
            let expect = p.get("expect").and_then(|v| v.as_str()).expect("expect");
            assert!(["moves", "flat"].contains(&expect), "{expect}");
        }
        for (name, _) in PER_LAYER {
            let reference = name.starts_with("hw.")
                || name.starts_with("trace.")
                || name == "train.reference_ms";
            assert!(
                reference || covered.iter().any(|c| c == name),
                "{name} has no prediction"
            );
        }
    }

    #[test]
    fn unknown_metric_names_are_rejected() {
        assert_eq!(unit_of("op_ms_p50"), Some("ms"));
        assert_eq!(unit_of("tensor.xent_us"), Some("us"));
        assert_eq!(unit_of("no.such_metric"), None);
    }
}
