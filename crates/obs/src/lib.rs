//! Cluster-wide observability for the dedup storage stack.
//!
//! The stack spans several crates — the virtual-time simulator
//! (`dedup-sim`), the scale-out object store (`dedup-store`), the
//! deduplication engine (`dedup-core`) and the benchmark drivers
//! (`dedup-bench`) — and before this crate each layer kept private ad-hoc
//! counters. `dedup-obs` gives them one shared vocabulary:
//!
//! - [`registry`] — a cloneable [`Registry`] of named, labelled
//!   instruments (counters, gauges, log-scaled latency histograms with
//!   p50/p95/p99, sliding-window rate meters over virtual time), plus a
//!   JSON-lines snapshot export used as the metrics sidecar format by the
//!   figure binaries.
//! - [`probe`] — free functions sampling simulator state (per-resource
//!   utilisation, flow-engine queue depth and per-resource in-flight leg
//!   backlog) into a registry without the simulator depending on this
//!   crate.
//! - [`trace`] — per-op causal tracing: a [`Tracer`] implements the
//!   simulator's `TraceSink` so every cost-DAG leg an engine executes
//!   becomes a span (with queueing and service time separated), grouped
//!   into span trees per foreground op / background flush.
//! - [`optracker`] — Ceph-style op tracker behind the tracer: ring
//!   buffers of in-flight and historic ops, rolling-p95 slow-op
//!   detection, JSON dumps.
//! - [`chrome`] — Chrome `trace_event` (Perfetto-loadable) export of
//!   recorded traces, plus a dependency-free schema validator for CI.
//! - [`events`] — the third pillar: a severity-leveled, bounded-ring
//!   [`EventLog`] of discrete, virtual-time-stamped state changes (OSD
//!   down, bloom overfill, WAL checkpoint, band transition) with
//!   JSON-lines export.
//! - [`health`] — the [`HealthCheck`] trait plus `ok/degraded/critical`
//!   aggregation into a machine-readable [`HealthReport`].
//! - [`observer`] — the [`Observer`] handle bundling one stack's
//!   registry, tracer and event log.
//!
//! Each storage stack holds one `Observer`: the cluster owns it and the
//! engine and service read through it, so a single registry snapshot
//! shows the whole system (foreground op latencies next to flush-queue
//! depth next to disk utilisation), and attaching a traced observer once
//! reaches every layer. Figure binaries run with `--trace` attach one and
//! write their sidecars under `$DEDUP_OBS_DIR`.

pub mod chrome;
pub mod events;
pub mod health;
pub mod observer;
pub mod optracker;
pub mod probe;
pub mod registry;
pub mod trace;

pub use chrome::{render, validate_chrome_trace};
pub use events::{Event, EventLog, Severity};
pub use health::{HealthCheck, HealthFinding, HealthReport, HealthStatus};
pub use observer::Observer;
pub use optracker::{Clock, OpTrace, OpTracker, SlowOpEvent, Span, Track, TrackerConfig};
pub use probe::{sample_flow_engine, sample_resources};
pub use registry::{
    json_escape, Counter, Gauge, Histogram, Labels, Meter, MetricSnapshot, Registry, SnapshotValue,
};
pub use trace::{TraceCtx, TraceExport, Tracer};
