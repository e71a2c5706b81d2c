//! The metrics every run reports, and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`. Every workload reports all of them
/// with tracing off.
pub const END_TO_END: [(&str, &str); 6] = [
    ("throughput_qps", "1/s"),
    ("lat_p50_ms", "ms"),
    ("slo_qps", "1/s"),
    ("sim_queries_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics: `(name, unit)`. Every workload reports all of them
/// with tracing on; a layer the workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("distribution.remap_us", "us"),
    ("partition.bucketize_us", "us"),
    ("model.gather_us", "us"),
    ("core.merge_us", "us"),
    ("model.gather_bytes", "B"),
    ("model.gather_gbps", "GB/s"),
    ("partition.hot_shard_share", "ratio"),
    ("tensor.bottom_mlp_us", "us"),
    ("tensor.top_mlp_us", "us"),
    ("tensor.mlp_gflops", "GFLOP/s"),
    ("model.interaction_us", "us"),
    ("core.forward_us", "us"),
    ("trace.overhead_us", "us"),
    ("serve.queue_wait_ms_p99", "ms"),
    ("serve.gen_late_ms_p99", "ms"),
    ("serve.lat_p99_ms", "ms"),
    ("model.init_s", "s"),
    ("model.count_s", "s"),
    ("partition.plan_s", "s"),
    ("core.shard_s", "s"),
    ("core.shard_param_mib", "MiB"),
    ("core.plan_s", "s"),
    ("core.sim_run_s", "s"),
    ("sim.host_ns_per_rpc", "ns"),
    ("sim.queries", "count"),
    ("sim.fanout_rpcs", "count"),
    ("cluster.replica_changes", "count"),
    ("cluster.peak_replicas", "count"),
    ("host.copy_gbps", "GB/s"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Every check passed (on the operations that did not fail).
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records a failed check: the run is no longer correct.
    pub fn fail(&mut self, what: String) {
        self.correct = false;
        self.notes.push(format!("CHECK FAILED: {what}"));
    }

    pub fn check(&mut self, name: &str, result: Result<(), String>) {
        match result {
            Ok(()) => self.notes.push(format!("check: {name}: ok")),
            Err(e) => self.fail(format!("{name}: {e}")),
        }
    }

    /// The metrics a run in this mode reports, in order.
    pub fn metric_list(trace: bool) -> &'static [(&'static str, &'static str)] {
        if trace {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// The final line: one JSON object with `correct`, `attempted`,
    /// `failed` and every metric of the mode. A metric the run did not
    /// produce, or produced as a non-finite number, makes it incorrect.
    pub fn result_line(&mut self, trace: bool) -> String {
        let mut metrics = Vec::new();
        for &(name, unit) in Self::metric_list(trace) {
            let value = self.values.get(name).copied().unwrap_or(f64::NAN);
            if !value.is_finite() {
                self.fail(format!("metric {name} was not measured"));
                continue;
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names and units here are the ones `BENCHMARK.json`
    /// declares, in both lists.
    #[test]
    fn metrics_match_the_benchmark_declaration() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(decl) = std::fs::read_to_string(path) else {
            return;
        };
        let compact: String = decl.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let needle = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&needle), "{name} ({unit}) not declared");
        }
        let declared = compact.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn a_missing_metric_makes_the_run_incorrect() {
        let mut r = Report {
            correct: true,
            ..Report::default()
        };
        let line = r.result_line(false);
        assert!(!r.correct);
        assert!(line.starts_with("{\"correct\": false"));
    }
}
