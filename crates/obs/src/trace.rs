//! Per-operation causal tracing over the cost DAG.
//!
//! A [`Tracer`] is a cloneable handle (like [`Registry`]) that records a
//! **span tree** for every traced operation:
//!
//! - **Virtual-time spans**, one per cost-DAG leg executed by a
//!   [`FlowEngine`](dedup_sim::FlowEngine). The tracer implements
//!   [`TraceSink`], so attaching a clone to an engine
//!   (`engine.set_trace_sink(Box::new(tracer.clone()))`) streams every leg
//!   — resource, queue-entry time, service start, completion — into the op
//!   bound to the flow's tag. Each leg becomes a span with `queue` and
//!   `service` child spans, so queueing and service time are separated.
//! - **Wall-clock spans** for the flush pipeline's stage → fingerprint →
//!   commit phases and service-worker ticks, measured against the tracer's
//!   creation instant.
//!
//! Ops live in an [`OpTracker`] ring (in-flight → historic) with rolling
//! p95 slow-op detection; see [`crate::optracker`]. The whole record
//! exports as Chrome `trace_event` JSON via [`crate::chrome`].
//!
//! # Lifecycle
//!
//! ```
//! use dedup_obs::Tracer;
//! use dedup_sim::{CostExpr, FlowEngine, ResourcePool, ResourceSpec, SimTime};
//!
//! let mut pool = ResourcePool::new();
//! let disk = pool.register(ResourceSpec::disk("osd.0/disk", 1 << 20, 0));
//! let tracer = Tracer::new();
//! tracer.register_resources(&pool);
//!
//! let mut engine = FlowEngine::new();
//! engine.set_trace_sink(Box::new(tracer.clone()));
//!
//! let ctx = tracer.begin_op("read", "obj-1", SimTime::ZERO);
//! tracer.bind_flow(42, &ctx);
//! engine.start(
//!     SimTime::ZERO,
//!     &CostExpr::tagged("read.disk", CostExpr::transfer(disk, 4096)),
//!     42,
//! );
//! engine.advance(&mut pool); // completion finishes the op automatically
//! assert_eq!(tracer.export().ops.len(), 1);
//! ```

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dedup_sim::{CostExpr, LegKind, LegRecord, ResourcePool, SimTime, TraceSink};

use crate::optracker::{Clock, OpTrace, OpTracker, SlowOpEvent, Span, Track, TrackerConfig};
use crate::registry::{Counter, Registry};

/// Everything a [`Tracer`] recorded, snapshot for export.
#[derive(Debug, Clone, Default)]
pub struct TraceExport {
    /// Resource-index → spec-name mapping for resolving span tracks.
    pub resource_names: Vec<String>,
    /// Historic then in-flight ops, in begin order.
    pub ops: Vec<OpTrace>,
    /// Standalone wall-clock spans (flush pipeline phases), not owned by
    /// any op.
    pub wall_spans: Vec<Span>,
}

#[derive(Debug)]
struct TracerInner {
    next_op: u64,
    /// Flow tag → op id, for attributing engine legs.
    bindings: HashMap<u64, u64>,
    tracker: OpTracker,
    resource_names: Vec<String>,
    wall_spans: Vec<Span>,
    /// Bound on `wall_spans` (standalone spans have no op ring to age out
    /// of).
    max_wall_spans: usize,
    slow_counter: Option<Counter>,
}

/// Cloneable per-operation tracer; see the [module docs](self).
#[derive(Debug, Clone)]
pub struct Tracer {
    inner: Arc<Mutex<TracerInner>>,
    /// Wall-clock epoch: wall spans are measured from here.
    epoch: Instant,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// Creates a tracer with default [`TrackerConfig`] capacities.
    pub fn new() -> Self {
        Tracer::with_config(TrackerConfig::default())
    }

    /// Creates a tracer with explicit ring capacities / slow-op tuning.
    pub fn with_config(config: TrackerConfig) -> Self {
        Tracer {
            inner: Arc::new(Mutex::new(TracerInner {
                next_op: 1,
                bindings: HashMap::new(),
                tracker: OpTracker::new(config),
                resource_names: Vec::new(),
                wall_spans: Vec::new(),
                max_wall_spans: 65536,
                slow_counter: None,
            })),
            epoch: Instant::now(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TracerInner> {
        self.inner.lock().expect("tracer lock")
    }

    /// Records the pool's resource names so exported spans can name their
    /// tracks (`osd.3/disk`, `node.0/nic`, ...).
    pub fn register_resources(&self, pool: &ResourcePool) {
        let mut inner = self.lock();
        inner.resource_names = pool.iter().map(|(_, r)| r.spec().name.clone()).collect();
    }

    /// Publishes the slow-op counter as `trace.slow_ops` in `registry`.
    pub(crate) fn attach_registry(&self, registry: &Registry) {
        self.lock().slow_counter = Some(registry.counter("trace.slow_ops"));
    }

    /// Begins a virtual-time op (foreground I/O, background flush).
    pub fn begin_op(&self, kind: &str, detail: &str, now: SimTime) -> TraceCtx {
        self.begin(kind, detail, Clock::Virtual, now.as_nanos())
    }

    /// Begins a wall-clock op (service-worker tick).
    pub fn begin_wall_op(&self, kind: &str, detail: &str) -> TraceCtx {
        let now = self.wall_now_ns();
        self.begin(kind, detail, Clock::Wall, now)
    }

    fn begin(&self, kind: &str, detail: &str, clock: Clock, start_ns: u64) -> TraceCtx {
        let mut inner = self.lock();
        let id = inner.next_op;
        inner.next_op += 1;
        inner.tracker.begin(id, kind, detail, clock, start_ns);
        TraceCtx {
            tracer: self.clone(),
            op: Some(id),
        }
    }

    /// A label-only context carrying no op identity: lets layers tag cost
    /// subtrees without a per-op handle.
    pub fn ctx(&self) -> TraceCtx {
        TraceCtx {
            tracer: self.clone(),
            op: None,
        }
    }

    /// Routes legs of the flow started with `tag` into `ctx`'s op. Safe to
    /// rebind a tag (closed-loop drivers reuse stream slots as tags).
    pub fn bind_flow(&self, tag: u64, ctx: &TraceCtx) {
        if let Some(op) = ctx.op {
            self.lock().bindings.insert(tag, op);
        }
    }

    /// Finishes an op explicitly (for ops not executed through a bound
    /// flow). Flow-bound ops finish automatically on flow completion.
    pub fn finish_op(&self, ctx: &TraceCtx, end: SimTime) {
        if let Some(op) = ctx.op {
            self.lock().finish(op, end.as_nanos());
        }
    }

    /// Finishes a wall-clock op at the current wall time.
    pub fn finish_wall_op(&self, ctx: &TraceCtx) {
        let now = self.wall_now_ns();
        if let Some(op) = ctx.op {
            self.lock().finish(op, now);
        }
    }

    /// Nanoseconds of wall time since this tracer was created.
    pub fn wall_now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a standalone wall-clock span (flush pipeline phase) on the
    /// current thread's track.
    pub fn wall_span(&self, name: &str, start_ns: u64, end_ns: u64) {
        let thread = std::thread::current().name().unwrap_or("anon").to_string();
        let mut inner = self.lock();
        if inner.wall_spans.len() >= inner.max_wall_spans {
            return;
        }
        inner.wall_spans.push(Span {
            name: name.to_string(),
            track: Track::Thread(thread),
            start_ns,
            end_ns,
            parent: None,
            bytes: 0,
        });
    }

    /// Total ops flagged slow so far.
    pub fn slow_ops(&self) -> u64 {
        self.lock().tracker.slow_ops()
    }

    /// The bounded slow-op event log, oldest first.
    pub fn slow_events(&self) -> Vec<SlowOpEvent> {
        self.lock().tracker.slow_events().cloned().collect()
    }

    /// In-flight ops as a JSON array (cf. Ceph `dump_ops_in_flight`).
    pub fn dump_in_flight(&self) -> String {
        self.lock().tracker.dump_in_flight()
    }

    /// Historic ops as a JSON array (cf. Ceph `dump_historic_ops`).
    pub fn dump_historic(&self) -> String {
        self.lock().tracker.dump_historic()
    }

    /// Snapshots everything recorded so far for export.
    pub fn export(&self) -> TraceExport {
        let inner = self.lock();
        let mut ops: Vec<OpTrace> = inner.tracker.historic().cloned().collect();
        ops.extend(inner.tracker.in_flight().cloned());
        ops.sort_by_key(|o| o.id);
        TraceExport {
            resource_names: inner.resource_names.clone(),
            ops,
            wall_spans: inner.wall_spans.clone(),
        }
    }
}

impl TracerInner {
    fn finish(&mut self, op: u64, end_ns: u64) {
        if self.tracker.finish(op, end_ns).is_some() {
            if let Some(c) = &self.slow_counter {
                c.inc();
            }
        }
    }
}

impl TraceSink for Tracer {
    fn leg(&self, tag: u64, leg: &LegRecord) {
        let mut inner = self.lock();
        let Some(&op) = inner.bindings.get(&tag) else {
            return; // untraced flow (e.g. an idle-poll timer)
        };
        let (track, fallback) = match leg.resource {
            Some(r) => {
                let idx = r.index();
                let name = inner
                    .resource_names
                    .get(idx)
                    .cloned()
                    .unwrap_or_else(|| format!("res.{idx}"));
                (Track::Resource(idx as u32), name)
            }
            None => (Track::Thread("delay".into()), "delay".to_string()),
        };
        let name = leg.label.as_deref().map(String::from).unwrap_or(fallback);
        let parent = inner.tracker.add_span(
            op,
            Span {
                name,
                track: track.clone(),
                start_ns: leg.queued_at.as_nanos(),
                end_ns: leg.completed_at.as_nanos(),
                parent: None,
                bytes: leg.bytes,
            },
        );
        let Some(parent) = parent else { return };
        if leg.kind == LegKind::Delay {
            return; // no queue/service structure on resource-free legs
        }
        if leg.queue_nanos() > 0 {
            inner.tracker.add_span(
                op,
                Span {
                    name: "queue".into(),
                    track: track.clone(),
                    start_ns: leg.queued_at.as_nanos(),
                    end_ns: leg.service_start.as_nanos(),
                    parent: Some(parent),
                    bytes: 0,
                },
            );
        }
        inner.tracker.add_span(
            op,
            Span {
                name: "service".into(),
                track,
                start_ns: leg.service_start.as_nanos(),
                end_ns: leg.completed_at.as_nanos(),
                parent: Some(parent),
                bytes: leg.bytes,
            },
        );
    }

    fn flow_completed(&self, tag: u64, at: SimTime) {
        let mut inner = self.lock();
        if let Some(op) = inner.bindings.remove(&tag) {
            inner.finish(op, at.as_nanos());
        }
    }
}

/// A handle tying cost-tree labels (and optionally an op identity) to a
/// [`Tracer`]. Carried by storage-layer ops (`IoCtx`) so cluster
/// read/write/recovery paths can tag the cost legs they assemble.
#[derive(Debug, Clone)]
pub struct TraceCtx {
    tracer: Tracer,
    op: Option<u64>,
}

impl TraceCtx {
    /// The op this context belongs to, if it carries one.
    pub fn op_id(&self) -> Option<u64> {
        self.op
    }

    /// The owning tracer.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Labels a cost subtree with a semantic step name.
    pub fn label(&self, label: &str, cost: CostExpr) -> CostExpr {
        CostExpr::tagged(label, cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dedup_sim::{FlowEngine, ResourceSpec};

    fn traced_setup() -> (ResourcePool, FlowEngine, Tracer) {
        let mut pool = ResourcePool::new();
        pool.register(ResourceSpec::disk("osd.0/disk", 1 << 20, 0));
        pool.register(ResourceSpec::nic("node.0/nic", 1 << 20, 0));
        let tracer = Tracer::new();
        tracer.register_resources(&pool);
        let mut engine = FlowEngine::new();
        engine.set_trace_sink(Box::new(tracer.clone()));
        (pool, engine, tracer)
    }

    #[test]
    fn bound_flow_builds_span_tree_and_finishes_op() {
        let (mut pool, mut engine, tracer) = traced_setup();
        let disk = pool.iter().next().unwrap().0;
        let nic = pool.iter().nth(1).unwrap().0;
        let cost = CostExpr::tagged(
            "read",
            CostExpr::seq([
                CostExpr::tagged("lookup", CostExpr::transfer(nic, 64)),
                CostExpr::tagged("fetch", CostExpr::transfer(disk, 1 << 20)),
            ]),
        );
        let ctx = tracer.begin_op("read", "obj-7", SimTime::ZERO);
        tracer.bind_flow(5, &ctx);
        engine.start(SimTime::ZERO, &cost, 5);
        while engine.advance(&mut pool).is_some() {}
        let export = tracer.export();
        assert_eq!(export.ops.len(), 1);
        let op = &export.ops[0];
        assert_eq!(op.kind, "read");
        assert!(op.end_ns.is_some(), "flow completion finished the op");
        let names: Vec<&str> = op.spans.iter().map(|s| s.name.as_str()).collect();
        assert!(names.contains(&"read/lookup"));
        assert!(names.contains(&"read/fetch"));
        assert!(names.contains(&"service"));
        // Child spans nest inside their parents.
        for s in &op.spans {
            if let Some(p) = s.parent {
                let parent = &op.spans[p as usize];
                assert!(parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns);
            }
        }
    }

    #[test]
    fn unbound_flows_are_ignored() {
        let (mut pool, mut engine, tracer) = traced_setup();
        let disk = pool.iter().next().unwrap().0;
        engine.start(SimTime::ZERO, &CostExpr::transfer(disk, 4096), 77);
        while engine.advance(&mut pool).is_some() {}
        assert!(tracer.export().ops.is_empty());
    }

    #[test]
    fn queueing_produces_queue_child_spans() {
        let (mut pool, mut engine, tracer) = traced_setup();
        let disk = pool.iter().next().unwrap().0;
        let c1 = tracer.begin_op("w", "a", SimTime::ZERO);
        let c2 = tracer.begin_op("w", "b", SimTime::ZERO);
        tracer.bind_flow(1, &c1);
        tracer.bind_flow(2, &c2);
        engine.start(SimTime::ZERO, &CostExpr::transfer(disk, 1 << 20), 1);
        engine.start(SimTime::ZERO, &CostExpr::transfer(disk, 1 << 20), 2);
        while engine.advance(&mut pool).is_some() {}
        let export = tracer.export();
        let queued: Vec<&OpTrace> = export
            .ops
            .iter()
            .filter(|o| o.spans.iter().any(|s| s.name == "queue"))
            .collect();
        assert_eq!(queued.len(), 1, "only the second op queued");
        let q = queued[0].spans.iter().find(|s| s.name == "queue").unwrap();
        assert_eq!(q.end_ns - q.start_ns, 1_000_000_000);
    }

    #[test]
    fn wall_ops_and_spans_are_recorded() {
        let tracer = Tracer::new();
        let ctx = tracer.begin_wall_op("service.tick", "");
        let t0 = tracer.wall_now_ns();
        tracer.wall_span("flush.stage", t0, t0 + 10);
        tracer.finish_wall_op(&ctx);
        let export = tracer.export();
        assert_eq!(export.ops.len(), 1);
        assert_eq!(export.ops[0].clock, Clock::Wall);
        assert!(export.ops[0].end_ns.is_some());
        assert_eq!(export.wall_spans.len(), 1);
        assert_eq!(export.wall_spans[0].name, "flush.stage");
    }

    #[test]
    fn export_ctx_has_no_op_but_still_labels() {
        let tracer = Tracer::new();
        let ctx = tracer.ctx();
        assert_eq!(ctx.op_id(), None);
        let cost = ctx.label(
            "read",
            CostExpr::delay(dedup_sim::SimDuration::from_nanos(5)),
        );
        assert!(matches!(cost, CostExpr::Tagged { .. }));
    }

    #[test]
    fn slow_counter_reaches_registry() {
        let tracer = Tracer::with_config(TrackerConfig {
            slow_min_samples: 2,
            slow_factor: 2.0,
            ..TrackerConfig::default()
        });
        let registry = Registry::new();
        tracer.attach_registry(&registry);
        for i in 0..4 {
            let ctx = tracer.begin_op("r", "", SimTime::from_nanos(i));
            tracer.finish_op(&ctx, SimTime::from_nanos(i + 100));
        }
        let ctx = tracer.begin_op("r", "", SimTime::ZERO);
        tracer.finish_op(&ctx, SimTime::from_nanos(100_000));
        assert_eq!(tracer.slow_ops(), 1);
        assert_eq!(registry.counter("trace.slow_ops").get(), 1);
        assert!(tracer.dump_historic().contains("\"slow\":true"));
    }
}

#[cfg(test)]
mod span_proptests {
    use super::*;
    use dedup_sim::{FlowEngine, ResourceId, ResourceSpec, SimDuration};
    use proptest::prelude::*;

    /// Resource-index shape of a cost tree; converted to a [`CostExpr`]
    /// against a concrete pool at test time (resource handles are only
    /// issued by pools).
    #[derive(Debug, Clone)]
    enum Shape {
        Transfer(usize, u64),
        Busy(usize, u64),
        Delay(u64),
        Seq(Vec<Shape>),
        Par(Vec<Shape>),
        Tag(u8, Box<Shape>),
    }

    fn to_cost(shape: &Shape, ids: &[ResourceId]) -> CostExpr {
        match shape {
            Shape::Transfer(r, b) => CostExpr::transfer(ids[r % ids.len()], *b),
            Shape::Busy(r, n) => CostExpr::busy(ids[r % ids.len()], SimDuration::from_nanos(*n)),
            Shape::Delay(n) => CostExpr::delay(SimDuration::from_nanos(*n)),
            Shape::Seq(parts) => CostExpr::seq(parts.iter().map(|p| to_cost(p, ids))),
            Shape::Par(parts) => CostExpr::par(parts.iter().map(|p| to_cost(p, ids))),
            Shape::Tag(l, inner) => {
                let label = ["stage", "lookup", "relay"][*l as usize % 3];
                CostExpr::tagged(label, to_cost(inner, ids))
            }
        }
    }

    fn leaf_strategy() -> impl Strategy<Value = Shape> {
        prop_oneof![
            (0usize..4, 1u64..100_000).prop_map(|(r, b)| Shape::Transfer(r, b)),
            (0usize..4, 1u64..1_000_000).prop_map(|(r, n)| Shape::Busy(r, n)),
            (1u64..1_000_000).prop_map(Shape::Delay),
        ]
    }

    fn shape_strategy(depth: u32) -> impl Strategy<Value = Shape> {
        leaf_strategy().prop_recursive(depth, 24, 4, |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 1..4).prop_map(Shape::Seq),
                proptest::collection::vec(inner.clone(), 1..4).prop_map(Shape::Par),
                (0u8..3, inner).prop_map(|(l, s)| Shape::Tag(l, Box::new(s))),
            ]
        })
    }

    fn traced_pool() -> (ResourcePool, Vec<ResourceId>) {
        let mut pool = ResourcePool::new();
        for i in 0..4 {
            pool.register(ResourceSpec::disk(format!("r{i}"), 10 << 20, 50_000));
        }
        let ids = pool.iter().map(|(id, _)| id).collect();
        (pool, ids)
    }

    fn run_traced(cost: &CostExpr) -> OpTrace {
        let (mut pool, _) = traced_pool();
        let tracer = Tracer::new();
        tracer.register_resources(&pool);
        let mut engine = FlowEngine::new();
        engine.set_trace_sink(Box::new(tracer.clone()));
        let ctx = tracer.begin_op("op", "", SimTime::ZERO);
        tracer.bind_flow(9, &ctx);
        engine.start(SimTime::ZERO, cost, 9);
        while engine.advance(&mut pool).is_some() {}
        let mut export = tracer.export();
        assert_eq!(export.ops.len(), 1);
        export.ops.pop().unwrap()
    }

    proptest! {
        /// Every span of a traced op nests inside the op's `[start, end]`
        /// window; parented spans nest inside their parent; and the
        /// parent links form a single rooted tree (the op is the implicit
        /// root, parents always precede children).
        #[test]
        fn span_trees_are_well_formed(shape in shape_strategy(3)) {
            let (_, ids) = traced_pool();
            let cost = to_cost(&shape, &ids);
            let op = run_traced(&cost);
            let end = op.end_ns.expect("flow completion finished the op");
            prop_assert!(end >= op.start_ns);
            for (i, span) in op.spans.iter().enumerate() {
                prop_assert!(span.start_ns <= span.end_ns, "span {i} inverted");
                prop_assert!(
                    op.start_ns <= span.start_ns && span.end_ns <= end,
                    "span {i} escapes the op window"
                );
                if let Some(p) = span.parent {
                    let p = p as usize;
                    prop_assert!(p < i, "parent link {p} does not precede child {i}");
                    let parent = &op.spans[p];
                    prop_assert!(
                        parent.parent.is_none(),
                        "queue/service children only hang off leg spans"
                    );
                    prop_assert!(
                        parent.start_ns <= span.start_ns && span.end_ns <= parent.end_ns,
                        "child {i} escapes parent {p}"
                    );
                }
            }
        }

        /// On a purely sequential cost tree the top-level leg spans never
        /// overlap: each leg is queued only once its predecessor has
        /// completed.
        #[test]
        fn seq_legs_do_not_overlap(
            legs in proptest::collection::vec(leaf_strategy(), 1..10),
        ) {
            let (_, ids) = traced_pool();
            let cost = to_cost(&Shape::Seq(legs), &ids);
            let op = run_traced(&cost);
            let mut roots: Vec<&Span> =
                op.spans.iter().filter(|s| s.parent.is_none()).collect();
            roots.sort_by_key(|s| s.start_ns);
            for pair in roots.windows(2) {
                prop_assert!(
                    pair[0].end_ns <= pair[1].start_ns,
                    "seq legs overlap: [{}, {}] then [{}, {}]",
                    pair[0].start_ns,
                    pair[0].end_ns,
                    pair[1].start_ns,
                    pair[1].end_ns
                );
            }
        }
    }
}
