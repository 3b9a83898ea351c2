//! One observer attached to a dedup store reaches every layer: the
//! engine, the cluster under it and a service worker over it all record
//! into the same registry, tracer and event log.

use dedup_core::{CachePolicy, DedupConfig, DedupService, DedupStore, FailurePoint};
use dedup_placement::OsdId;
use dedup_sim::{FlowEngine, SimTime};
use dedup_store::{ClientId, ClusterBuilder, ObjectName};

const CS: usize = 4096;

fn t(secs: u64) -> SimTime {
    SimTime::from_secs(secs)
}

#[test]
fn one_attach_reaches_every_layer() {
    let mut s = DedupStore::with_default_pools(
        ClusterBuilder::new().build(),
        DedupConfig::with_chunk_size(CS as u32).cache_policy(CachePolicy::EvictAll),
    );
    assert!(s.tracer().is_none() && s.events().is_none());
    s.observe(s.observer().clone().traced());
    let tracer = s.tracer().expect("tracer attached").clone();
    assert!(s
        .registry()
        .snapshot(SimTime::ZERO)
        .iter()
        .any(|m| m.name == "trace.slow_ops"));

    // Engine event: GC drops the reference a crashed flush left behind.
    let obj = ObjectName::new("obj");
    let _ = s.write(ClientId(0), &obj, 0, vec![1u8; CS], t(0));
    let _ = s.flush_all(t(10)).expect("flush v1");
    let _ = s.write(ClientId(0), &obj, 0, vec![2u8; CS], t(20));
    let crashed = s
        .flush_object_with_failure(&obj, t(30), Some(FailurePoint::AfterChunkStore))
        .expect("crashed flush");
    assert!(crashed.value.aborted);
    let _ = s.gc_chunk_pool().expect("gc");

    // A traced read of a flushed, evicted chunk is proxied to the chunk
    // pool: the engine labels the redirection legs, the cluster its disk
    // read inside them.
    let cold = ObjectName::new("cold");
    let _ = s.write(ClientId(0), &cold, 0, vec![3u8; CS], t(40));
    let _ = s.flush_all(t(50)).expect("flush cold");
    let mut engine = FlowEngine::new();
    engine.set_trace_sink(Box::new(tracer.clone()));
    let op = tracer.begin_op("read", "cold", t(60));
    tracer.bind_flow(1, &op);
    let read = s
        .read(ClientId(0), &cold, 0, CS as u64, t(60))
        .expect("read");
    assert_eq!(&read.value[..], &[3u8; CS][..]);
    engine.start(t(60), &read.cost, 1);
    let done = engine.advance(&mut s.cluster_mut().perf_mut().pool);
    tracer.finish_op(&op, done.expect("read completes").at);

    // Cluster event, in the same log as the engine's.
    s.cluster_mut().mark_down(OsdId(0));
    let events = s.events().expect("events attached").events();
    assert!(events.iter().any(|e| e.source == "engine.gc"), "{events:?}");
    assert!(events.iter().any(|e| e.kind == "osd_down"), "{events:?}");

    let export = s.tracer().expect("tracer attached").export();
    let spans: Vec<&str> = export
        .ops
        .iter()
        .flat_map(|o| &o.spans)
        .map(|sp| sp.name.as_str())
        .collect();
    assert!(spans.iter().any(|n| n.contains("redirect.chunk_read")));
    assert!(spans.iter().any(|n| n.contains("disk_read")));

    // A service built from the store records its worker's wall-clock
    // ticks and spans in the same tracer.
    let service = DedupService::start(s);
    let svc = ObjectName::new("svc");
    let _ = service.write(ClientId(0), &svc, 0, vec![4u8; CS], t(70));
    service.tick(t(80));
    service.drain();
    drop(service.shutdown());
    let export = tracer.export();
    assert!(export.ops.iter().any(|o| o.kind == "service.tick"));
    assert!(export
        .wall_spans
        .iter()
        .any(|w| w.name == "flush.fingerprint"));
}
