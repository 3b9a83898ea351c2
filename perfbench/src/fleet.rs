//! The `ingest` and `durable` workloads: a cloud VM fleet written,
//! flushed, read back, churned, garbage-collected and crash-recovered by
//! one client, in fixed-size extents.

use std::time::Instant;

use dedup_core::{rebuilt_store, wal_store, CachePolicy, CrashTopology, DedupConfig, DedupStore};
use dedup_sim::SimTime;
use dedup_store::{ClientId, ClusterBuilder, MemWalBackend, ObjectName};
use dedup_workloads::cloud::CloudSpec;
use dedup_workloads::content::{decision_rng, unique_block};
use rand::Rng;

use crate::checks::Checks;
use crate::kernels;
use crate::report::Values;
use crate::steps::{self, Counters, Recovery};
use crate::trace::Trace;
use crate::Round;

const CLIENT: ClientId = ClientId(1);
/// Chunk size of every workload (the engine default).
const CHUNK: u32 = 32 * 1024;

/// One fleet workload's shape.
pub struct Fleet {
    spec: CloudSpec,
    /// Bytes per foreground write and read.
    extent: usize,
    /// Attach a WAL and crash by dropping the store; otherwise the crash
    /// is an engine restart over the surviving cluster.
    wal: bool,
    compress: bool,
}

impl Fleet {
    /// Large objects (320 chunks each), no WAL, no codec.
    pub fn ingest() -> Fleet {
        Fleet {
            spec: CloudSpec {
                vms: 16,
                ..CloudSpec::default()
            }
            .scaled(2.5),
            extent: 128 * 1024,
            wal: false,
            compress: false,
        }
    }

    /// Smaller objects (64 chunks each), WAL attached, codec on. Shared
    /// (compressible) data is 3/4 of each disk, so the median read lies
    /// well inside one mode of the compressed/raw read-cost split.
    /// 64 KiB extents give each round 1024 writes and reads, so a round's
    /// p99 has ten samples beyond it.
    pub fn durable() -> Fleet {
        Fleet {
            spec: CloudSpec {
                vms: 32,
                base_bytes_per_vm: 1 << 20,
                common_bytes_per_vm: 512 << 10,
                unique_bytes_per_vm: 512 << 10,
                ..CloudSpec::default()
            },
            extent: 64 * 1024,
            wal: true,
            compress: true,
        }
    }

    fn config(&self) -> DedupConfig {
        let c = DedupConfig::with_chunk_size(CHUNK).cache_policy(CachePolicy::EvictAll);
        if self.compress {
            c.compress()
        } else {
            c
        }
    }

    /// Builds the store; the WAL backend comes back when one is attached.
    fn build(&self) -> (DedupStore, Option<std::sync::Arc<MemWalBackend>>) {
        let topology = CrashTopology::default();
        if self.wal {
            let (s, b) = wal_store(topology, self.config());
            (s, Some(b))
        } else {
            let cluster = ClusterBuilder::new()
                .nodes(topology.nodes)
                .osds_per_node(topology.osds_per_node)
                .build();
            (DedupStore::with_default_pools(cluster, self.config()), None)
        }
    }
}

/// One overwrite: object index, byte offset, new content.
type Overwrite = (usize, usize, Vec<u8>);

/// The churn slice of generation `gen`: every fourth VM starting at
/// `gen`, middle quarter of its extents, half of them new unique data and
/// half copied from another VM at the same offset (dedup hits).
fn churn_plan(
    model: &[(ObjectName, Vec<u8>)],
    extent: usize,
    gen: u64,
    seed: u64,
) -> Vec<Overwrite> {
    let mut rng = decision_rng(seed, 0xC4_0000 + gen);
    let mut plan = Vec::new();
    for (vm, (_, data)) in model.iter().enumerate() {
        if vm % 4 != gen as usize {
            continue;
        }
        let extents = data.len() / extent;
        for e in extents * 3 / 8..extents * 5 / 8 {
            let off = e * extent;
            let content = if rng.gen_bool(0.5) {
                let id = (gen << 40) | ((vm as u64) << 20) | e as u64;
                unique_block(extent, id, seed)
            } else {
                let src = rng.gen_range(0..model.len());
                model[src].1[off..off + extent].to_vec()
            };
            plan.push((vm, off, content));
        }
    }
    plan
}

/// Reads every object back in extents and compares with the model.
/// Returns per-read latencies when `lat` is given.
fn read_all(
    store: &DedupStore,
    model: &[(ObjectName, Vec<u8>)],
    extent: usize,
    tr: &mut Trace,
    op: &mut u64,
    mut lat: Option<&mut Vec<u64>>,
    checks: &mut Checks,
) -> u64 {
    let mut bytes = 0;
    for (name, data) in model {
        for off in (0..data.len()).step_by(extent) {
            let len = extent.min(data.len() - off);
            *op += 1;
            let t = Instant::now();
            let r = tr.span("core.engine.read", *op, || {
                store.read(CLIENT, name, off as u64, len as u64, SimTime::ZERO)
            });
            if let Some(l) = lat.as_deref_mut() {
                l.push(t.elapsed().as_nanos() as u64);
            }
            if let Some(got) = checks.ok(r, "read") {
                checks.check(got.value[..] == data[off..off + len], || {
                    format!("{name} @{off}: wrong bytes")
                });
            }
            bytes += len as u64;
        }
    }
    bytes
}

/// Applies overwrites to the store and the model.
fn apply(
    store: &DedupStore,
    model: &mut [(ObjectName, Vec<u8>)],
    plan: Vec<Overwrite>,
    tr: &mut Trace,
    op: &mut u64,
    checks: &mut Checks,
) -> u64 {
    let mut bytes = 0;
    for (vm, off, content) in plan {
        *op += 1;
        let name = &model[vm].0;
        let r = tr.span("core.engine.write", *op, || {
            store.write(CLIENT, name, off as u64, &content[..], SimTime::ZERO)
        });
        checks.ok(r, "overwrite");
        model[vm].1[off..off + content.len()].copy_from_slice(&content);
        bytes += content.len() as u64;
    }
    bytes
}

/// Runs one full round of the workload.
pub fn round(fleet: &Fleet, seed: u64, traced: bool, epoch: Instant, checks: &mut Checks) -> Round {
    let mut out = Round::default();
    let mut tr = Trace::new(traced, epoch);
    let mut op = 0u64;

    // Set-up: generate the inputs and build the store.
    let t = Instant::now();
    let mut model: Vec<(ObjectName, Vec<u8>)> = fleet
        .spec
        .seed(seed)
        .dataset()
        .objects
        .into_iter()
        .map(|o| (ObjectName::new(o.name), o.data))
        .collect();
    let churn1 = churn_plan(&model, fleet.extent, 1, seed);
    let churn2 = churn_plan(&model, fleet.extent, 3, seed);
    let (mut store, backend) = fleet.build();
    out.setup_s = t.elapsed().as_secs_f64();
    let logical: u64 = model.iter().map(|(_, d)| d.len() as u64).sum();

    // 1. Write generation 0.
    let phase = tr.begin("write", op);
    let t = Instant::now();
    for (name, data) in &model {
        for off in (0..data.len()).step_by(fleet.extent) {
            let end = (off + fleet.extent).min(data.len());
            op += 1;
            let w = Instant::now();
            let r = tr.span("core.engine.write", op, || {
                store.write(CLIENT, name, off as u64, &data[off..end], SimTime::ZERO)
            });
            out.write_lat_ns.push(w.elapsed().as_nanos() as u64);
            checks.ok(r, "write");
        }
    }
    let write_s = t.elapsed().as_secs_f64();
    tr.end(phase);

    // 2. Flush until the dirty queue is empty.
    let fp_before = store.registry().counter("engine.fp.full_hash_bytes").get();
    let phase = tr.begin("flush", op);
    let t = Instant::now();
    let mut flushed =
        steps::flush_until_clean(&mut store, &mut tr, &mut op, SimTime::from_secs(60), checks);
    let flush_s = t.elapsed().as_secs_f64();
    tr.end(phase);

    // 3. Read everything back (redirected to the chunk pool).
    let stats0 = store.stats();
    let copied0 = store.registry().counter("engine.bytes_copied").get();
    let phase = tr.begin("read", op);
    let t = Instant::now();
    let read_bytes = read_all(
        &store,
        &model,
        fleet.extent,
        &mut tr,
        &mut op,
        Some(&mut out.read_lat_ns),
        checks,
    );
    let read_s = t.elapsed().as_secs_f64();
    tr.end(phase);
    let stats1 = store.stats();
    let copied1 = store.registry().counter("engine.bytes_copied").get();

    // 4. Overwrite a churned slice (generation 1) and flush it.
    let phase = tr.begin("churn", op);
    let mut churn_bytes = apply(&store, &mut model, churn1, &mut tr, &mut op, checks);
    let f = steps::flush_until_clean(
        &mut store,
        &mut tr,
        &mut op,
        SimTime::from_secs(120),
        checks,
    );
    flushed.absorb(&f);
    tr.end(phase);
    let fp_after = store.registry().counter("engine.fp.full_hash_bytes").get();

    // 5. Garbage-collect the chunk pool.
    let refs = if traced {
        steps::total_refs(&store, checks)
    } else {
        0
    };
    let phase = tr.begin("gc", op);
    op += 1;
    let t = Instant::now();
    let gc = checks
        .ok(
            tr.span("core.engine.gc_chunk_pool", op, || store.gc_chunk_pool()),
            "gc",
        )
        .map(|t| t.value)
        .unwrap_or_default();
    let gc_s = t.elapsed().as_secs_f64();
    tr.end(phase);

    // 6. Overwrite a second slice and crash with it unflushed.
    let mut counters = Counters::new();
    steps::count_flush(&mut counters, &flushed);
    *counters.entry("gc.chunks_reclaimed").or_default() += gc.chunks_reclaimed;
    *counters.entry("gc.stale_refs_dropped").or_default() += gc.stale_refs_dropped;
    churn_bytes += apply(&store, &mut model, churn2, &mut tr, &mut op, checks);
    let mut layers = Values::default();
    steps::store_layers(&store, &mut layers);
    if let Some(b) = &backend {
        // The crashed store's registry dies with it.
        steps::count_registry(&mut counters, &store);
        counters.insert("wal.durable_writes", b.durable_writes());
        counters.insert("wal.stable_bytes", b.stable_bytes());
        layers.set("store.wal.durable_writes", b.durable_writes() as f64);
        layers.set(
            "store.wal.stable_bytes_per_logical_byte",
            b.stable_bytes() as f64 / logical as f64,
        );
    }
    op += 1;
    let phase = tr.begin("recover", op);
    let t = Instant::now();
    if let Some(b) = &backend {
        // Drop the store without a checkpoint: only the WAL survives.
        drop(store);
        store = rebuilt_store(CrashTopology::default(), fleet.config(), b.clone());
    }
    let recovery = checks.ok(
        steps::recover(&mut store, &mut tr, op, SimTime::from_secs(180)),
        "recover_after_crash",
    );
    let recover_s = t.elapsed().as_secs_f64();
    tr.end(phase);
    let recovery = recovery.unwrap_or_default();
    checks.check(recovery.wal.replay_errors == 0, || {
        format!("{} WAL replay errors", recovery.wal.replay_errors)
    });

    count_recovery(&mut counters, &recovery);
    // After a WAL crash this is the rebuilt store's own registry.
    steps::count_registry(&mut counters, &store);
    let space_amp = steps::count_space(&mut counters, &store, checks);
    // Every object reads back; no dangling references, no leaks.
    read_all(
        &store,
        &model,
        fleet.extent,
        &mut Trace::new(false, epoch),
        &mut op,
        None,
        checks,
    );
    steps::check_invariants(&store, checks);

    // One closed-loop client: its throughput is bytes over the time its
    // calls took (the read check runs between calls, outside them).
    let write_busy_s = out.write_lat_ns.iter().sum::<u64>() as f64 / 1e9;
    let read_busy_s = out.read_lat_ns.iter().sum::<u64>() as f64 / 1e9;
    let e = &mut out.e2e;
    e.set("write_mbps", logical as f64 / 1e6 / write_busy_s);
    e.set("read_mbps", read_bytes as f64 / 1e6 / read_busy_s);
    e.set("flush_mbps", logical as f64 / 1e6 / flush_s);
    e.set("gc_s", gc_s);
    e.set("recover_s", recover_s);
    let fg_ops = (out.write_lat_ns.len() + out.read_lat_ns.len()) as f64;
    e.set("ops_per_s", fg_ops / (write_busy_s + read_busy_s));
    e.set("space_amp", space_amp);
    out.timed_s = write_s + flush_s + read_s + gc_s + recover_s;

    if traced {
        steps::span_layers(&tr, &mut layers);
        steps::flush_layers(&flushed, fp_after - fp_before, &mut layers);
        steps::gc_layers(&gc, layers.get("core.engine.gc.busy_s"), refs, &mut layers);
        layers.set("core.engine.write.bytes", (logical + churn_bytes) as f64);
        let hits = stats1.cache_hit_chunks - stats0.cache_hit_chunks;
        let redirected = stats1.redirected_chunks - stats0.redirected_chunks;
        layers.set("core.engine.read.cache_hit_chunks", hits as f64);
        layers.set("core.engine.read.redirected_chunks", redirected as f64);
        layers.set(
            "core.engine.read.cache_hit_ratio",
            hits as f64 / (hits + redirected).max(1) as f64,
        );
        layers.set("core.engine.read.bytes_copied", (copied1 - copied0) as f64);
        let chunks = kernels::sample_chunks(&store, checks);
        kernels::replay(&chunks, &fleet.config(), fleet.wal, &mut layers);
        out.layers = layers;
    }
    out.counters = counters;
    out.recovery = Some(recovery);
    out.trace = tr;
    out
}

fn count_recovery(c: &mut Counters, r: &Recovery) {
    c.insert("recover.dirty_objects", r.dirty_objects as u64);
    c.insert("recover.index_seeded", r.index_seeded as u64);
    c.insert(
        "recover.wal_records",
        r.wal.checkpoint_records + r.wal.log_records_replayed,
    );
    c.insert("recover.gc_chunks_reclaimed", r.gc.chunks_reclaimed);
    steps::count_flush(c, &r.flush);
}
