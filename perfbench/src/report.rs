//! The metric catalogue and the one-line JSON result.
//!
//! Every workload reports every metric of the catalogue: the end-to-end
//! metrics on an untraced run, the per-layer metrics on a traced one. A
//! per-layer metric a workload never exercises reads 0 (the "predicted ~0
//! on" column of `perfbench/METRICS.md`).

use std::collections::BTreeMap;

/// End-to-end metrics, `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_sps", "1/s"),
    ("batch_p50_ms", "ms"),
    ("batch_p90_ms", "ms"),
    ("macro_f1", "ratio"),
    ("lat_p50_ms.r1", "ms"),
    ("lat_p50_ms.r2", "ms"),
    ("lat_p50_ms.r3", "ms"),
    ("sla_rate_qps", "1/s"),
];

/// Per-layer metrics, `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("corpus.generate_s", "s"),
    ("pipeline.fit_s", "s"),
    ("artifact.load_s", "s"),
    ("binary.elf.busy_ms", "ms"),
    ("binary.elf.parse_failures", "count"),
    ("binary.symbols.busy_ms", "ms"),
    ("binary.strings.busy_ms", "ms"),
    ("binary.strings.blob_ratio", "ratio"),
    ("ssdeep.ctph_file.busy_ms", "ms"),
    ("ssdeep.ctph_strings.busy_ms", "ms"),
    ("ssdeep.ctph_symbols.busy_ms", "ms"),
    ("ssdeep.ctph.mb_per_s", "MB/s"),
    ("ssdeep.ctph.passes_per_input", "count"),
    ("ssdeep.prepare.busy_ms", "ms"),
    ("similarity.rows.busy_ms", "ms"),
    ("similarity.rows.per_query_us", "us"),
    ("similarity.candidates_per_query.file", "count"),
    ("similarity.candidates_per_query.strings", "count"),
    ("similarity.candidates_per_query.symbols", "count"),
    ("similarity.nonzero_cells_per_query", "count"),
    ("forest.busy_ms", "ms"),
    ("forest.per_query_us", "us"),
    ("lat_p90_ms.r1", "ms"),
    ("lat_p90_ms.r2", "ms"),
    ("lat_p90_ms.r3", "ms"),
    ("lat_p99_ms.r1", "ms"),
    ("lat_p99_ms.r2", "ms"),
    ("lat_p99_ms.r3", "ms"),
    ("shardnet.wire.encode_us", "us"),
    ("shardnet.worker.score_us", "us"),
    ("shardnet.rtt_p50_us.r1", "us"),
    ("shardnet.hop_us", "us"),
    ("shardnet.sheds", "count"),
    ("loadgen.lag_p99_ms.r1", "ms"),
    ("loadgen.lag_p99_ms.r2", "ms"),
    ("loadgen.lag_p99_ms.r3", "ms"),
    ("loadgen.backlog_max.r1", "count"),
    ("loadgen.backlog_max.r2", "count"),
    ("loadgen.backlog_max.r3", "count"),
    ("loadgen.attempted.r1", "count"),
    ("loadgen.attempted.r2", "count"),
    ("loadgen.attempted.r3", "count"),
    ("loadgen.failed.r1", "count"),
    ("loadgen.failed.r2", "count"),
    ("loadgen.failed.r3", "count"),
    ("failed_share", "ratio"),
    ("serving.unattributed_share", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("host.foreign_cpu_share", "ratio"),
    ("host.steal_share", "ratio"),
    ("host.compute_kernel_ms", "ms"),
    ("host.chase_kernel_ns", "ns"),
];

/// Metric values gathered by a workload, keyed by catalogue name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Record `value` under `name`, which must be in a catalogue.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "{name} is not a catalogued metric"
        );
        self.0.insert(name, value);
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The catalogue's metrics as a JSON object, in catalogue order; an
    /// error names the first metric the workload did not record or
    /// recorded as a non-finite number.
    pub fn to_json(&self, catalogue: &[(&str, &str)]) -> Result<String, String> {
        let mut fields = Vec::with_capacity(catalogue.len());
        for &(name, unit) in catalogue {
            let value = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not recorded"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!("{{{}}}", fields.join(", ")))
    }
}

/// The result line: correctness, operation counts, and the metrics object.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics_json: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics_json}}}"
    )
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read process status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("process status has no VmHWM")?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM line {line:?}: {e}"))?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lists_the_catalogue_in_order_and_rejects_gaps() {
        let catalogue = &[("b.x", "ms"), ("a", "s")];
        let mut m = Metrics::default();
        m.0.insert("a", 0.5);
        assert!(m.to_json(catalogue).unwrap_err().contains("b.x"));
        m.0.insert("b.x", 2.0);
        assert_eq!(
            m.to_json(catalogue).unwrap(),
            "{\"b.x\": {\"value\": 2.0, \"unit\": \"ms\"}, \"a\": {\"value\": 0.5, \"unit\": \"s\"}}"
        );
        m.0.insert("a", f64::NAN);
        assert!(m.to_json(catalogue).is_err());
        assert_eq!(
            result_line(true, 3, 0, "{}"),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {}}"
        );
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        let names = END_TO_END.iter().chain(PER_LAYER);
        for (name, unit) in names {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = spec.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
