//! Metric names, units, summary statistics and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics every workload reports, with their units. They are
/// measured with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("write_mbps", "MB/s"),
    ("write_p50_us", "us"),
    ("write_p99_us", "us"),
    ("read_mbps", "MB/s"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("flush_mbps", "MB/s"),
    ("gc_s", "s"),
    ("recover_s", "s"),
    ("ops_per_s", "1/s"),
    ("space_amp", "ratio"),
];

/// Per-layer metrics the traced run reports, with their units. Layers a
/// workload does not exercise read zero.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.pipeline.stage.busy_s", "s"),
    ("core.pipeline.fingerprint.busy_s", "s"),
    ("core.pipeline.fingerprint.full_hash_bytes", "bytes"),
    ("core.pipeline.commit.busy_s", "s"),
    ("core.pipeline.commit.chunks_created", "count"),
    ("core.pipeline.commit.chunks_deduped", "count"),
    ("core.pipeline.commit.derefs", "count"),
    ("core.pipeline.commit.dedup_hit_ratio", "ratio"),
    ("store.cluster.transact.us_per_chunk", "us"),
    ("core.engine.gc.busy_s", "s"),
    ("core.engine.gc.chunks_examined", "count"),
    ("core.engine.gc.stale_refs_dropped", "count"),
    ("core.engine.gc.chunks_reclaimed", "count"),
    ("core.engine.gc.ns_per_ref", "ns"),
    ("core.engine.write.busy_s", "s"),
    ("core.engine.write.calls", "count"),
    ("core.engine.write.bytes", "bytes"),
    ("core.engine.read.busy_s", "s"),
    ("core.engine.read.cache_hit_chunks", "count"),
    ("core.engine.read.redirected_chunks", "count"),
    ("core.engine.read.cache_hit_ratio", "ratio"),
    ("core.engine.read.bytes_copied", "bytes"),
    ("store.wal.durable_writes", "count"),
    ("store.wal.stable_bytes_per_logical_byte", "ratio"),
    ("store.wal.crc32.ns_per_byte", "ns/B"),
    ("store.wal.encode.ns_per_byte", "ns/B"),
    ("compress.compress.ns_per_byte", "ns/B"),
    ("compress.compress.kept_ratio", "ratio"),
    ("compress.compress.model_ratio", "ratio"),
    ("compress.decompress.ns_per_byte", "ns/B"),
    ("compress.decompress.model_ratio", "ratio"),
    ("fingerprint.of.ns_per_byte", "ns/B"),
    ("fingerprint.of.model_ratio", "ratio"),
    ("fingerprint.sig.ns_per_byte", "ns/B"),
    ("store.cluster.wal_recover.busy_s", "s"),
    ("core.engine.recover_dirty_queue.busy_s", "s"),
    ("core.engine.rebuild_index.busy_s", "s"),
    ("core.engine.recover.flush_all.busy_s", "s"),
    ("core.engine.recover.gc_chunk_pool.busy_s", "s"),
    ("store.cluster.wal_checkpoint.busy_s", "s"),
    ("core.service.lock_wait_read_p99_us", "us"),
    ("core.service.lock_wait_write_p99_us", "us"),
    ("core.ratecontrol.admitted", "count"),
    ("core.ratecontrol.denials", "count"),
    ("core.hitset.hot_skips", "count"),
    ("core.hitset.promotions", "count"),
    ("write.unattributed_share", "ratio"),
    ("flush.unattributed_share", "ratio"),
    ("read.unattributed_share", "ratio"),
    ("churn.unattributed_share", "ratio"),
    ("mix.unattributed_share", "ratio"),
    ("gc.unattributed_share", "ratio"),
    ("recover.unattributed_share", "ratio"),
    ("trace.overhead_share", "ratio"),
];

/// Median of `v` (sorts it); 0 for an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile of an ascending slice; 0 for an empty slice.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A named set of metric values, printed in a fixed order.
#[derive(Debug, Default, Clone)]
pub struct Values(pub BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.0.insert(name, v);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Per-name median over several rounds' values.
    pub fn median_of(rounds: &[Values]) -> Values {
        let mut names: Vec<&'static str> =
            rounds.iter().flat_map(|r| r.0.keys().copied()).collect();
        names.sort_unstable();
        names.dedup();
        let mut out = Values::default();
        for n in names {
            let mut v: Vec<f64> = rounds.iter().map(|r| r.get(n)).collect();
            out.set(n, median(&mut v));
        }
        out
    }
}

/// Formats a number for JSON: full precision, and finite.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: `metrics` holds exactly the names of `table`.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    table: &[(&str, &str)],
    values: &Values,
) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(values.get(name))
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&v, 1.0), 100);
        assert_eq!(quantile(&[], 0.5), 0);
    }

    #[test]
    fn result_line_holds_exactly_the_table() {
        let mut v = Values::default();
        v.set("a_s", 1.5);
        v.set("not_in_table", 2.0);
        let line = result_json(true, 3, 0, &[("a_s", "s"), ("b", "count")], &v);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a_s\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 0, \"unit\": \"count\"}}}"
        );
    }
}
