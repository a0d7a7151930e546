//! Metric names and units, and the result line the benchmark prints.

use std::collections::BTreeMap;

use crate::trace::SpanTotals;

/// End-to-end metrics: every workload reports each of them.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("throughput_per_s", "1/s"), ("latency_p50_us", "us")];

/// Per-layer metrics: every traced run reports each of them, 0 where the
/// workload bypasses the layer.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("proc.peak_rss_mb", "MB"),
    ("serve.queue_wait_p50_us", "us"),
    ("serve.service_p50_us", "us"),
    ("serve.service_p99_us", "us"),
    ("core.attempts_per_req", "count"),
    ("core.aborted_us_per_req", "us"),
    ("core.commit_attempt_p50_us", "us"),
    ("core.commit_attempt_p99_us", "us"),
    ("core.ro_aborts", "count"),
    ("mvcc.snapshot_txns", "count"),
    ("mvcc.ring_len_max", "count"),
    ("mvcc.gc_lag_events", "count"),
    ("wal.on_commit_p50_us", "us"),
    ("wal.on_commit_p99_us", "us"),
    ("wal.flushes", "count"),
    ("wal.records_per_flush", "count"),
    ("wal.device_append_us_per_call", "us"),
    ("wal.snapshot_installs", "count"),
    ("wal.snapshot_us_per_install", "us"),
    ("wal.log_bytes_per_req", "B"),
    ("wal.snapshot_bytes_per_req", "B"),
    ("block.fill_wait_ms_per_block", "ms"),
    ("block.execute_us_per_block", "us"),
    ("block.commit_us_per_block", "us"),
    ("block.waves_per_block", "count"),
    ("block.re_executions_per_block", "count"),
    ("block.validations_per_txn", "count"),
    ("block.dependency_stalls_per_block", "count"),
    ("sim.wall_us_per_commit", "us"),
    ("sim.user_cpu_s", "s"),
    ("sim.sys_cpu_s", "s"),
    ("model.train_s", "s"),
    ("model.tsa_states", "count"),
    ("guide.holds_per_commit", "count"),
    ("guide.bailed_out", "count"),
    ("guide.unknown_hits", "count"),
    ("guide.run_wall_s", "s"),
    ("guide.stddev_ticks", "ticks"),
    ("guide.makespan_ticks", "ticks"),
    ("trace.throughput_per_s", "1/s"),
    ("trace.latency_p50_us", "us"),
];

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
}

/// The metrics of one run, in declaration order.
#[derive(Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    /// Sets (or replaces) a declared metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        unit_of(name);
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    /// The end-to-end metrics.
    pub fn e2e(&mut self, setup_s: f64, throughput_per_s: f64, latency_p50_us: f64) {
        self.set("setup_s", setup_s);
        self.set("throughput_per_s", throughput_per_s);
        self.set("latency_p50_us", latency_p50_us);
    }

    /// Every per-layer metric at 0, for the workload to overwrite.
    pub fn per_layer_zero(&mut self) {
        for (name, _) in PER_LAYER {
            self.set(name, 0.0);
        }
    }

    /// The value of a metric, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// What a workload run hands back to `main`.
pub struct Outcome {
    /// Failed output checks; empty when every output was correct.
    pub errors: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// Median of a non-empty sample (mean of the middle two for even sizes).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set size of this process, in MB (VmHWM).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Prints per-span-name totals as comment lines.
pub fn print_span_totals(totals: &BTreeMap<&'static str, SpanTotals>) {
    println!("# span                         count     total_ms      self_ms");
    for (name, t) in totals {
        println!(
            "# {name:<26} {:>8} {:>12.3} {:>12.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric of
/// the run's kind with its unit.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    traced: bool,
) -> Result<String, String> {
    let names: Vec<&str> = if traced {
        PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        END_TO_END.iter().map(|m| m.0).collect()
    };
    let mut parts = Vec::new();
    for name in names {
        let v = metrics.get(name).ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not a finite number: {v}"));
        }
        parts.push(format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{}\"}}", unit_of(name)));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        parts.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The declared metrics are exactly those in BENCHMARK.json, with the
    /// same units.
    #[test]
    fn declarations_match_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let compact: String = json.split_whitespace().collect();
        let declared = compact.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len(), "metric count");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn result_line_needs_every_metric() {
        let mut m = Metrics::default();
        m.set("setup_s", 1.5);
        assert!(result_line(true, 1, 0, &m, false).is_err(), "throughput missing");
        m.e2e(1.5, 1000.0, 2.25);
        let line = result_line(true, 3, 0, &m, false).expect("complete");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(line.contains("\"latency_p50_us\": {\"value\": 2.25, \"unit\": \"us\"}"));
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
