//! Drift test for `METRICS.md`: builds a fully instrumented stack,
//! materializes every lazily registered series, and checks the
//! documentation against the registry in both directions — a series
//! that registers but is not documented fails, and a documented series
//! that no longer registers fails.

use std::collections::BTreeSet;

use dedup_bench::drivers::{run_closed_loop, OpSpec};
use dedup_bench::systems::{BackgroundMode, DedupSystem, StorageSystem};
use dedup_core::{CachePolicy, DedupConfig, DedupService, DedupStore};
use dedup_obs::{sample_flow_engine, sample_resources};
use dedup_sim::{FlowEngine, SimTime};
use dedup_store::{ClientId, ClusterBuilder};

const CHUNK: u32 = 4096;

fn config() -> DedupConfig {
    DedupConfig::with_chunk_size(CHUNK).cache_policy(CachePolicy::EvictAll)
}

/// Every metric name the stack can register, materialized into live
/// registries: the engine+cluster registry (eager series plus the lazy
/// driver/trace/capacity/sim samples) and a service worker's registry.
fn registered_names() -> BTreeSet<String> {
    let mut names = BTreeSet::new();

    let mut sys = DedupSystem::new("metrics-doc", config()).background(BackgroundMode::Unthrottled);
    let store = sys.store_mut();
    store.observe(store.observer().clone().traced());

    // driver.* registers per run; a short mixed workload also exercises
    // the engine so gauges carry real values.
    let stats = run_closed_loop(&mut sys, 2, 64, 7, |i, _| {
        OpSpec::write(
            format!("obj-{}", i % 4),
            (i / 4 % 8) * CHUNK as u64,
            vec![(i % 3) as u8 + 1; CHUNK as usize],
            ClientId(0),
        )
    });
    let now = stats.elapsed;
    let _ = sys.store_mut().flush_all(now).expect("flush_all");

    // capacity.* (including the per-pool labelled series).
    sys.store()
        .sample_capacity(now)
        .expect("capacity sample on a healthy store");
    // sim.resource.* / sim.flow.*.
    let registry = sys.store().registry().clone();
    sample_resources(&registry, &sys.cluster().perf().pool, now);
    sample_flow_engine(&registry, &FlowEngine::new(), &sys.cluster().perf().pool);

    for snap in registry.snapshot(now) {
        names.insert(snap.name);
    }

    // service.worker.* lives on whichever store a service wraps.
    let svc_store = DedupStore::with_default_pools(
        ClusterBuilder::new().nodes(2).osds_per_node(2).build(),
        config(),
    );
    let service = DedupService::start(svc_store);
    service.tick(SimTime::from_secs(1));
    let svc_store = service.shutdown();
    for snap in svc_store.registry().snapshot(SimTime::from_secs(1)) {
        names.insert(snap.name);
    }

    names
}

/// Backticked series names from `METRICS.md` table rows, split into the
/// enforced sections and the experiment-local appendix.
fn documented_names() -> (BTreeSet<String>, BTreeSet<String>) {
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../METRICS.md"))
        .expect("METRICS.md at the repository root");
    let mut enforced = BTreeSet::new();
    let mut local = BTreeSet::new();
    let mut in_local = false;
    for line in doc.lines() {
        if line.starts_with("## ") {
            in_local = line.contains("Experiment-local");
            continue;
        }
        // Table rows look like `| `name` | type | ... |`.
        let Some(rest) = line.strip_prefix("| `") else {
            continue;
        };
        let Some(name) = rest.split('`').next() else {
            continue;
        };
        if in_local {
            local.insert(name.to_string());
        } else {
            enforced.insert(name.to_string());
        }
    }
    (enforced, local)
}

#[test]
fn metrics_doc_matches_registry() {
    let registered = registered_names();
    let (documented, local) = documented_names();
    assert!(
        documented.len() > 50,
        "METRICS.md parse collapsed: only {} names found",
        documented.len()
    );

    let undocumented: Vec<_> = registered.difference(&documented).collect();
    assert!(
        undocumented.is_empty(),
        "series registered but missing from METRICS.md: {undocumented:?}"
    );

    let stale: Vec<_> = documented.difference(&registered).collect();
    assert!(
        stale.is_empty(),
        "series documented in METRICS.md but never registered: {stale:?}"
    );

    // Experiment-local names must stay out of the stack registry — if
    // one starts registering, move it into an enforced section.
    let leaked: Vec<_> = local.intersection(&registered).collect();
    assert!(
        leaked.is_empty(),
        "experiment-local series leaked into the stack registry: {leaked:?}"
    );
}
