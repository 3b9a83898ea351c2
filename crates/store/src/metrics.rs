//! Cluster-level observability: cached instrument handles for the data
//! plane's hot paths.
//!
//! The handles live on [`Cluster`](crate::Cluster) so recording is a couple
//! of atomic ops per I/O — the registry itself is only locked when an
//! instrument is first created or a snapshot is taken. All instruments are
//! interior-mutable, so `&self` paths (scrub) can record too.

use dedup_obs::{Counter, Histogram, Registry};

/// Instrument handles for one cluster.
#[derive(Debug, Clone)]
pub(crate) struct ClusterMetrics {
    /// Write transactions (any transaction carrying payload data).
    pub writes: Counter,
    /// Payload bytes accepted by write transactions.
    pub write_bytes: Counter,
    /// Read operations served.
    pub reads: Counter,
    /// Bytes returned to readers.
    pub read_bytes: Counter,
    /// Delete transactions.
    pub deletes: Counter,
    /// Latency of executed cost expressions, in virtual nanoseconds.
    pub exec_latency: Histogram,
    /// Recovery / rebalance passes run.
    pub recovery_runs: Counter,
    /// Objects examined across recovery passes.
    pub recovery_examined: Counter,
    /// Objects repaired (replicas copied or shards rebuilt).
    pub recovery_repaired: Counter,
    /// Payload bytes moved during recovery.
    pub recovery_bytes_moved: Counter,
    /// Scrub passes run (shallow and deep).
    pub scrub_runs: Counter,
    /// Inconsistencies found by scrubs.
    pub scrub_findings: Counter,
    /// Payload bytes deep-copied (memcpy) at data-plane hops. Registered
    /// as `engine.bytes_copied` so a stacked dedup engine sharing this
    /// registry accumulates into the same counter.
    pub bytes_copied: Counter,
    /// Payload bytes moved by refcount bump where the pre-zero-copy
    /// design memcpy'd (shared `engine.bytes_shared` instrument).
    pub bytes_shared: Counter,
    /// WAL records appended (one per committed transaction).
    pub wal_appends: Counter,
    /// Framed bytes appended to the per-OSD logs.
    pub wal_append_bytes: Counter,
    /// Checkpoints completed (segments + MANIFEST + log truncation).
    pub wal_checkpoints: Counter,
    /// Records replayed from checkpoint segments and log tails.
    pub wal_records_replayed: Counter,
    /// Torn log tails dropped by CRC during recovery.
    pub wal_torn_dropped: Counter,
    /// Wall-clock nanoseconds of WAL recovery passes.
    pub wal_recovery_wall_ns: Histogram,
}

impl ClusterMetrics {
    pub(crate) fn new(registry: &Registry) -> Self {
        ClusterMetrics {
            writes: registry.counter("cluster.writes"),
            write_bytes: registry.counter("cluster.write_bytes"),
            reads: registry.counter("cluster.reads"),
            read_bytes: registry.counter("cluster.read_bytes"),
            deletes: registry.counter("cluster.deletes"),
            exec_latency: registry.histogram("cluster.exec_latency_ns"),
            recovery_runs: registry.counter("cluster.recovery.runs"),
            recovery_examined: registry.counter("cluster.recovery.objects_examined"),
            recovery_repaired: registry.counter("cluster.recovery.objects_repaired"),
            recovery_bytes_moved: registry.counter("cluster.recovery.bytes_moved"),
            scrub_runs: registry.counter("cluster.scrub.runs"),
            scrub_findings: registry.counter("cluster.scrub.findings"),
            bytes_copied: registry.counter("engine.bytes_copied"),
            bytes_shared: registry.counter("engine.bytes_shared"),
            wal_appends: registry.counter("wal.appends"),
            wal_append_bytes: registry.counter("wal.append_bytes"),
            wal_checkpoints: registry.counter("wal.checkpoints"),
            wal_records_replayed: registry.counter("wal.records_replayed"),
            wal_torn_dropped: registry.counter("wal.torn_records_dropped"),
            wal_recovery_wall_ns: registry.histogram("wal.recovery_wall_ns"),
        }
    }
}
