//! Engine-driving steps shared by the workloads, each call wrapped in a
//! span named after the layer function it enters.

use std::collections::BTreeMap;

use dedup_core::{
    fingerprint_batch, CrashRecoveryReport, DedupError, DedupStore, FlushReport, GcReport,
};
use dedup_sim::SimTime;
use dedup_store::WalRecoveryReport;

use crate::checks::Checks;
use crate::report::Values;
use crate::trace::Trace;

/// Objects staged per flush pass (the engine's own `flush_all` batch).
pub const FLUSH_BATCH: usize = 64;

/// Flushes until the dirty queue is empty, driving the pipeline's three
/// public stages one batch at a time. A pass that stages nothing and
/// leaves the queue as long as before is a stall, and counts as failed.
pub fn flush_until_clean(
    store: &mut DedupStore,
    tr: &mut Trace,
    op: &mut u64,
    now: SimTime,
    checks: &mut Checks,
) -> FlushReport {
    let parallelism = store.fingerprint_parallelism();
    let tiered = store.config().tiered_fingerprint;
    let compression = store.config().compression;
    let mut total = FlushReport::default();
    while store.dirty_len() > 0 {
        *op += 1;
        let before = store.dirty_len();
        let staged = tr.span("core.pipeline.stage", *op, || {
            store.stage_batch(FLUSH_BATCH, now, false)
        });
        let Some(mut batch) = checks.ok(staged, "stage_batch") else {
            return total;
        };
        let progress = !batch.is_empty();
        tr.span("core.pipeline.fingerprint", *op, || {
            fingerprint_batch(&mut batch, parallelism, tiered, &compression)
        });
        let committed = tr.span("core.pipeline.commit", *op, || {
            store.commit_batch(batch, None)
        });
        let Some(t) = checks.ok(committed, "commit_batch") else {
            return total;
        };
        total.absorb(&t.value);
        if !progress && store.dirty_len() >= before {
            checks.fail(format!("flush stalled with {before} dirty objects"));
            return total;
        }
    }
    total
}

/// What crash recovery did; comparable across two recoveries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Recovery {
    pub wal: WalRecoveryReport,
    pub dirty_objects: usize,
    pub index_seeded: usize,
    pub flush: FlushReport,
    pub gc: GcReport,
    pub checkpoint_seq: u64,
}

impl From<CrashRecoveryReport> for Recovery {
    fn from(r: CrashRecoveryReport) -> Self {
        Recovery {
            wal: r.wal,
            dirty_objects: r.dirty_objects,
            index_seeded: r.bloom_seeded,
            flush: r.flush,
            gc: r.gc,
            checkpoint_seq: r.checkpoint_seq,
        }
    }
}

/// Crash recovery. Untraced it is one `recover_after_crash` call; traced
/// it runs that function's six public steps in its order, one span each.
pub fn recover(
    store: &mut DedupStore,
    tr: &mut Trace,
    op: u64,
    now: SimTime,
) -> Result<Recovery, DedupError> {
    if !tr.enabled() {
        return store.recover_after_crash(now).map(Recovery::from);
    }
    let wal = tr.span("store.cluster.wal_recover", op, || {
        store.cluster_mut().wal_recover()
    })?;
    let dirty_objects = tr.span("core.engine.recover_dirty_queue", op, || {
        store.recover_dirty_queue()
    })?;
    let index_seeded = tr.span("core.engine.rebuild_index", op, || store.rebuild_index())?;
    let flush = tr
        .span("core.engine.recover.flush_all", op, || store.flush_all(now))?
        .value;
    let gc = tr
        .span("core.engine.recover.gc_chunk_pool", op, || {
            store.gc_chunk_pool()
        })?
        .value;
    let checkpoint_seq = tr
        .span("store.cluster.wal_checkpoint", op, || {
            store.cluster().wal_checkpoint()
        })?
        .last_seq;
    Ok(Recovery {
        wal,
        dirty_objects,
        index_seeded,
        flush,
        gc,
        checkpoint_seq,
    })
}

/// The store invariants every round must end with.
pub fn check_invariants(store: &DedupStore, checks: &mut Checks) {
    if let Some(missing) = checks.ok(store.verify_references(), "verify_references") {
        checks.check(missing.is_empty(), || {
            format!("{} dangling chunk references", missing.len())
        });
    }
    if let Some(leaked) = checks.ok(store.find_leaked_chunks(), "find_leaked_chunks") {
        checks.check(leaked.is_empty(), || {
            format!("{} leaked chunks", leaked.len())
        });
    }
}

/// Deterministic counters of one round, by name.
pub type Counters = BTreeMap<&'static str, u64>;

/// Adds a flush report's counts to `c`.
pub fn count_flush(c: &mut Counters, f: &FlushReport) {
    *c.entry("chunks_flushed").or_default() += f.chunks_flushed;
    *c.entry("chunks_created").or_default() += f.chunks_created;
    *c.entry("chunks_deduped").or_default() += f.chunks_deduped;
    *c.entry("derefs").or_default() += f.derefs;
    *c.entry("chunks_reclaimed").or_default() += f.chunks_reclaimed;
}

/// Adds the store's registry counters that belong in the block.
pub fn count_registry(c: &mut Counters, store: &DedupStore) {
    let r = store.registry();
    *c.entry("engine.fp.full_hash_bytes").or_default() +=
        r.counter("engine.fp.full_hash_bytes").get();
    *c.entry("engine.bytes_copied").or_default() += r.counter("engine.bytes_copied").get();
}

/// Space accounting: adds the `space_amp` inputs to `c` and returns the
/// stored bytes (cached, chunk, metadata and per-object overhead, one
/// copy) per logical byte.
pub fn count_space(c: &mut Counters, store: &DedupStore, checks: &mut Checks) -> f64 {
    let Some(s) = checks.ok(store.space_report(), "space_report") else {
        return 0.0;
    };
    c.insert("space.logical_bytes", s.logical_bytes);
    c.insert("space.cached_bytes", s.cached_bytes);
    c.insert("space.chunk_bytes", s.chunk_bytes);
    c.insert("space.metadata_bytes", s.metadata_bytes);
    c.insert("space.object_overhead_bytes", s.object_overhead_bytes);
    c.insert("space.chunk_objects", s.chunk_objects);
    s.stored_total_bytes() as f64 / s.logical_bytes.max(1) as f64
}

/// Per-layer values derived from the spans of one traced round.
pub fn span_layers(tr: &Trace, layers: &mut Values) {
    let totals = crate::trace::totals(tr.spans());
    let busy = |n: &str| totals.get(n).map_or(0.0, |t| t.busy_ns as f64 / 1e9);
    for (metric, span) in [
        ("core.pipeline.stage.busy_s", "core.pipeline.stage"),
        (
            "core.pipeline.fingerprint.busy_s",
            "core.pipeline.fingerprint",
        ),
        ("core.pipeline.commit.busy_s", "core.pipeline.commit"),
        ("core.engine.gc.busy_s", "core.engine.gc_chunk_pool"),
        ("core.engine.write.busy_s", "core.engine.write"),
        ("core.engine.read.busy_s", "core.engine.read"),
        (
            "store.cluster.wal_recover.busy_s",
            "store.cluster.wal_recover",
        ),
        (
            "core.engine.recover_dirty_queue.busy_s",
            "core.engine.recover_dirty_queue",
        ),
        (
            "core.engine.rebuild_index.busy_s",
            "core.engine.rebuild_index",
        ),
        (
            "core.engine.recover.flush_all.busy_s",
            "core.engine.recover.flush_all",
        ),
        (
            "core.engine.recover.gc_chunk_pool.busy_s",
            "core.engine.recover.gc_chunk_pool",
        ),
        (
            "store.cluster.wal_checkpoint.busy_s",
            "store.cluster.wal_checkpoint",
        ),
    ] {
        layers.set(metric, busy(span));
    }
    layers.set(
        "core.engine.write.calls",
        totals.get("core.engine.write").map_or(0, |t| t.calls) as f64,
    );
    for (metric, phase) in [
        ("write.unattributed_share", "write"),
        ("flush.unattributed_share", "flush"),
        ("read.unattributed_share", "read"),
        ("churn.unattributed_share", "churn"),
        ("mix.unattributed_share", "mix"),
        ("gc.unattributed_share", "gc"),
        ("recover.unattributed_share", "recover"),
    ] {
        let share = totals
            .get(phase)
            .map_or(0.0, |t| t.self_ns as f64 / t.busy_ns.max(1) as f64);
        layers.set(metric, share);
    }
}

/// Per-layer values every workload reads off the store's own counters.
pub fn store_layers(store: &DedupStore, layers: &mut Values) {
    let r = store.registry();
    let p99_us = |mode: &str| {
        r.histogram_with("service.shard.lock_wait_ns", &[("mode", mode)])
            .quantile(0.99) as f64
            / 1e3
    };
    layers.set("core.service.lock_wait_read_p99_us", p99_us("read"));
    layers.set("core.service.lock_wait_write_p99_us", p99_us("write"));
    layers.set(
        "core.ratecontrol.admitted",
        r.counter("rate.admitted").get() as f64,
    );
    layers.set(
        "core.ratecontrol.denials",
        r.counter("rate.denied").get() as f64,
    );
    let st = store.stats();
    layers.set("core.hitset.hot_skips", st.hot_skips as f64);
    layers.set("core.hitset.promotions", st.promotions as f64);
    let attempted = r.counter("engine.compress.attempted_chunks").get();
    let kept = r.counter("engine.compress.stored_chunks").get();
    layers.set(
        "compress.compress.kept_ratio",
        kept as f64 / attempted.max(1) as f64,
    );
}

/// Per-layer values of the benchmark-driven flushes.
pub fn flush_layers(f: &FlushReport, full_hash_bytes: u64, layers: &mut Values) {
    layers.set(
        "core.pipeline.commit.chunks_created",
        f.chunks_created as f64,
    );
    layers.set(
        "core.pipeline.commit.chunks_deduped",
        f.chunks_deduped as f64,
    );
    layers.set("core.pipeline.commit.derefs", f.derefs as f64);
    layers.set(
        "core.pipeline.commit.dedup_hit_ratio",
        f.chunks_deduped as f64 / (f.chunks_created + f.chunks_deduped).max(1) as f64,
    );
    layers.set(
        "core.pipeline.fingerprint.full_hash_bytes",
        full_hash_bytes as f64,
    );
}

/// Per-layer values of a GC pass; `refs` is the back-reference count the
/// pass had to validate.
pub fn gc_layers(gc: &GcReport, gc_s: f64, refs: u64, layers: &mut Values) {
    layers.set("core.engine.gc.chunks_examined", gc.chunks_examined as f64);
    layers.set(
        "core.engine.gc.stale_refs_dropped",
        gc.stale_refs_dropped as f64,
    );
    layers.set(
        "core.engine.gc.chunks_reclaimed",
        gc.chunks_reclaimed as f64,
    );
    layers.set("core.engine.gc.ns_per_ref", gc_s * 1e9 / refs.max(1) as f64);
}

/// Back references in the chunk pool: the sum of all refcounts.
pub fn total_refs(store: &DedupStore, checks: &mut Checks) -> u64 {
    checks
        .ok(store.refcount_histogram(), "refcount_histogram")
        .map_or(0, |h| h.iter().map(|(count, n)| count * n).sum())
}
