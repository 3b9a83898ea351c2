//! The `serve` workload: `DedupService` with its default configuration,
//! many small objects preloaded and flushed, then two closed-loop client
//! threads issuing Zipf(0.99) 80/20 GETs and PUTs of 32 KiB blocks while
//! background ticks arrive on a fixed virtual-time cadence.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use dedup_core::{DedupConfig, DedupService, DedupStore};
use dedup_sim::SimTime;
use dedup_store::{ClientId, ClusterBuilder, ObjectName};
use dedup_workloads::content::{decision_rng, unique_block};
use dedup_workloads::zipf::ZipfSampler;
use rand::{Rng, RngCore};

use crate::checks::Checks;
use crate::kernels;
use crate::report::Values;
use crate::steps::{self, Counters};
use crate::trace::Trace;
use crate::Round;

/// Bytes per GET and PUT, and per chunk.
const BLOCK: usize = 32 * 1024;
/// Blocks per object.
const BLOCKS: usize = 4;
/// Objects in the served population.
const OBJECTS: usize = 2048;
/// Distinct block contents every write draws from.
const POOL: usize = 512;
/// Words of one (object, block) allowed-content bitset.
const WORDS: usize = POOL / 64;
/// Client threads (the host has two cores).
const CLIENTS: usize = 2;
/// Zipf skew of object popularity.
const THETA: f64 = 0.99;
/// Share of ops that are GETs.
const GET_SHARE: f64 = 0.8;
/// Virtual time between two consecutive ops of the whole client
/// population: 800 ops per virtual second, under the rate controller's
/// low watermark, so background dedup keeps up.
const VIRTUAL_GAP_NS: u64 = 1_250_000;
/// Ops between two background ticks (0.5 virtual seconds).
const TICK_OPS: u64 = 400;
/// Block header: magic then the block's pool index.
const MAGIC: &[u8; 8] = b"dedupblk";

/// The block pool: every block names its own pool index in its header,
/// so any block read back identifies the content it must equal.
fn block_pool(seed: u64) -> Vec<Vec<u8>> {
    (0..POOL)
        .map(|i| {
            let mut b = unique_block(BLOCK, 0x5E_0000 + i as u64, seed);
            b[..8].copy_from_slice(MAGIC);
            b[8..16].copy_from_slice(&(i as u64).to_le_bytes());
            b
        })
        .collect()
}

/// Which pool blocks each (object, block) slot may hold: every content
/// ever written there. Bits are set before the write is issued, so a
/// concurrent GET can only see contents already allowed.
struct Allowed(Vec<AtomicU64>);

impl Allowed {
    fn new() -> Self {
        Allowed(
            (0..OBJECTS * BLOCKS * WORDS)
                .map(|_| AtomicU64::new(0))
                .collect(),
        )
    }

    fn allow(&self, obj: usize, blk: usize, id: usize) {
        self.0[(obj * BLOCKS + blk) * WORDS + id / 64].fetch_or(1 << (id % 64), Ordering::SeqCst);
    }

    fn allowed(&self, obj: usize, blk: usize, id: usize) -> bool {
        self.0[(obj * BLOCKS + blk) * WORDS + id / 64].load(Ordering::SeqCst) & (1 << (id % 64))
            != 0
    }
}

/// Checks one block read back from slot (obj, blk).
fn check_block(
    got: &[u8],
    obj: usize,
    blk: usize,
    pool: &[Vec<u8>],
    allowed: &Allowed,
) -> Result<(), String> {
    if got.len() != BLOCK || &got[..8] != MAGIC {
        return Err(format!("obj-{obj} block {blk}: not a pool block"));
    }
    let id = u64::from_le_bytes(got[8..16].try_into().expect("8 bytes")) as usize;
    if id >= POOL || got != &pool[id][..] {
        return Err(format!("obj-{obj} block {blk}: corrupt block {id}"));
    }
    if !allowed.allowed(obj, blk, id) {
        return Err(format!(
            "obj-{obj} block {blk}: block {id} was never written there"
        ));
    }
    Ok(())
}

fn name(obj: usize) -> ObjectName {
    ObjectName::new(format!("obj-{obj}"))
}

/// What one client thread measured.
#[derive(Default)]
struct Client {
    get_lat_ns: Vec<u64>,
    put_lat_ns: Vec<u64>,
    checks: Checks,
}

/// State the mix's client threads share.
struct Mix<'a> {
    seed: u64,
    service: &'a DedupService,
    names: &'a [ObjectName],
    pool: &'a [Vec<u8>],
    allowed: &'a Allowed,
    /// Ops issued by all clients; op `k` runs at virtual time `k` gaps.
    clock: &'a AtomicU64,
    deadline: Instant,
}

impl Mix<'_> {
    /// Client `id`'s closed loop: the next op is sent when the previous
    /// one returns.
    fn client(&self, id: usize, tr: &mut Trace) -> Client {
        let (service, names, pool, allowed) = (self.service, self.names, self.pool, self.allowed);
        let mut out = Client::default();
        let zipf = ZipfSampler::new(OBJECTS, THETA);
        let mut rng = decision_rng(self.seed, 0xC11E_0000 + id as u64);
        let cid = ClientId(10 + id as u32);
        let mut n = 0u64;
        loop {
            n += 1;
            if n.is_multiple_of(32) && Instant::now() >= self.deadline {
                break;
            }
            let k = self.clock.fetch_add(1, Ordering::SeqCst) + 1;
            let now = SimTime::from_nanos(k * VIRTUAL_GAP_NS);
            if k.is_multiple_of(TICK_OPS) {
                service.tick(now);
            }
            let get = rng.gen_bool(GET_SHARE);
            let obj = zipf.sample(&mut rng);
            let blk = (rng.next_u64() % BLOCKS as u64) as usize;
            let off = (blk * BLOCK) as u64;
            if get {
                let t = Instant::now();
                let r = tr.span("core.engine.read", k, || {
                    service.read(cid, &names[obj], off, BLOCK as u64, now)
                });
                out.get_lat_ns.push(t.elapsed().as_nanos() as u64);
                if let Some(got) = out.checks.ok(r, "GET") {
                    if let Err(e) = check_block(&got.value, obj, blk, pool, allowed) {
                        out.checks.fail(e);
                    }
                }
            } else {
                let pick = (rng.next_u64() % POOL as u64) as usize;
                allowed.allow(obj, blk, pick);
                let t = Instant::now();
                let r = tr.span("core.engine.write", k, || {
                    service.write(cid, &names[obj], off, &pool[pick][..], now)
                });
                out.put_lat_ns.push(t.elapsed().as_nanos() as u64);
                out.checks.ok(r, "PUT");
            }
        }
        out
    }
}

/// Runs one round with a mix phase of `mix_s` seconds.
pub fn round(seed: u64, mix_s: f64, traced: bool, epoch: Instant, checks: &mut Checks) -> Round {
    let mut out = Round::default();
    let mut tr = Trace::new(traced, epoch);
    let mut op = 0u64;

    // Set-up: the block pool, the preload layout and the service.
    let t = Instant::now();
    let pool = block_pool(seed);
    let allowed = Allowed::new();
    let names: Vec<ObjectName> = (0..OBJECTS).map(name).collect();
    let mut rng = decision_rng(seed, 0x9E10AD);
    let preload: Vec<Vec<u8>> = (0..OBJECTS)
        .map(|obj| {
            let mut data = Vec::with_capacity(BLOCK * BLOCKS);
            for blk in 0..BLOCKS {
                let pick = rng.gen_range(0..POOL);
                allowed.allow(obj, blk, pick);
                data.extend_from_slice(&pool[pick]);
            }
            data
        })
        .collect();
    let cluster = ClusterBuilder::new().nodes(4).osds_per_node(4).build();
    let store = DedupStore::with_default_pools(cluster, DedupConfig::default());
    let service = DedupService::start(store);
    out.setup_s = t.elapsed().as_secs_f64();

    // Preload and flush.
    let phase = tr.begin("write", op);
    for (obj, data) in preload.iter().enumerate() {
        op += 1;
        let r = tr.span("core.engine.write", op, || {
            service.write(ClientId(1), &names[obj], 0, &data[..], SimTime::ZERO)
        });
        checks.ok(r, "preload");
    }
    tr.end(phase);
    drop(preload);
    let phase = tr.begin("flush", op);
    let t = Instant::now();
    let flushed = service.with_store(|s| {
        steps::flush_until_clean(
            s,
            &mut tr,
            &mut op,
            SimTime::from_nanos(VIRTUAL_GAP_NS),
            checks,
        )
    });
    let flush_s = t.elapsed().as_secs_f64();
    tr.end(phase);

    // The closed-loop GET/PUT mix.
    let stats0 = service.with_store(|s| s.stats());
    let copied0 = service.with_store(|s| s.registry().counter("engine.bytes_copied").get());
    let clock = AtomicU64::new(0);
    let phase = tr.begin("mix", op);
    let t = Instant::now();
    let deadline = t + Duration::from_secs_f64(mix_s);
    let mix = Mix {
        seed,
        service: &service,
        names: &names,
        pool: &pool,
        allowed: &allowed,
        clock: &clock,
        deadline,
    };
    let clients: Vec<(Client, Trace)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|id| {
                let mut ctr = tr.fork();
                let mix = &mix;
                s.spawn(move || (mix.client(id, &mut ctr), ctr))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mix_s = t.elapsed().as_secs_f64();
    tr.end(phase);
    let mut get_lat = Vec::new();
    for (c, ctr) in clients {
        get_lat.extend(c.get_lat_ns);
        out.write_lat_ns.extend(c.put_lat_ns);
        checks.merge(c.checks);
        tr.absorb(ctr);
    }
    out.read_lat_ns = get_lat;
    let ops = clock.load(Ordering::SeqCst);
    service.drain();
    let stats1 = service.with_store(|s| s.stats());
    let copied1 = service.with_store(|s| s.registry().counter("engine.bytes_copied").get());
    checks.check(service.worker_errors() == 0, || {
        format!(
            "background worker errors: {:?}",
            service.last_worker_error()
        )
    });
    let mut store = service.shutdown();

    // GC, then an engine restart over the surviving cluster.
    let refs = if traced {
        steps::total_refs(&store, checks)
    } else {
        0
    };
    let mut layers = Values::default();
    steps::store_layers(&store, &mut layers);
    op += 1;
    let phase = tr.begin("gc", op);
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
    let now = SimTime::from_nanos((ops + 1) * VIRTUAL_GAP_NS);
    op += 1;
    let phase = tr.begin("recover", op);
    let t = Instant::now();
    let recovery = checks.ok(
        steps::recover(&mut store, &mut tr, op, now),
        "recover_after_crash",
    );
    let recover_s = t.elapsed().as_secs_f64();
    tr.end(phase);

    let mut counters = Counters::new();
    let reg = store.registry();
    for (key, series) in [
        ("chunks_flushed", "engine.flush.chunks_flushed"),
        ("chunks_created", "engine.flush.chunks_created"),
        ("chunks_deduped", "engine.flush.chunks_deduped"),
        ("chunks_reclaimed", "engine.flush.chunks_reclaimed"),
    ] {
        counters.insert(key, reg.counter(series).get());
    }
    counters.insert("gc.chunks_reclaimed", gc.chunks_reclaimed);
    counters.insert("gc.stale_refs_dropped", gc.stale_refs_dropped);
    counters.insert("ops", ops);
    steps::count_registry(&mut counters, &store);
    let space_amp = steps::count_space(&mut counters, &store, checks);

    // Every block of every object is a block written there.
    for (obj, n) in names.iter().enumerate() {
        let r = store.read(ClientId(1), n, 0, (BLOCK * BLOCKS) as u64, now);
        if let Some(got) = checks.ok(r, "verify read") {
            for blk in 0..BLOCKS {
                let b = got.value.get(blk * BLOCK..(blk + 1) * BLOCK).unwrap_or(&[]);
                let r = check_block(b, obj, blk, &pool, &allowed);
                checks.check(r.is_ok(), || r.unwrap_err());
            }
        }
    }
    steps::check_invariants(&store, checks);

    let get_bytes = (out.read_lat_ns.len() * BLOCK) as f64;
    let put_bytes = (out.write_lat_ns.len() * BLOCK) as f64;
    let e = &mut out.e2e;
    e.set("write_mbps", put_bytes / 1e6 / mix_s);
    e.set("read_mbps", get_bytes / 1e6 / mix_s);
    e.set(
        "flush_mbps",
        (OBJECTS * BLOCKS * BLOCK) as f64 / 1e6 / flush_s,
    );
    e.set("gc_s", gc_s);
    e.set("recover_s", recover_s);
    e.set("ops_per_s", ops as f64 / mix_s);
    e.set("space_amp", space_amp);
    out.timed_s = flush_s + mix_s + gc_s + recover_s;

    if traced {
        steps::span_layers(&tr, &mut layers);
        steps::flush_layers(&flushed, 0, &mut layers);
        layers.set(
            "core.pipeline.fingerprint.full_hash_bytes",
            store.registry().counter("engine.fp.full_hash_bytes").get() as f64,
        );
        steps::gc_layers(&gc, layers.get("core.engine.gc.busy_s"), refs, &mut layers);
        layers.set(
            "core.engine.write.bytes",
            (OBJECTS * BLOCKS * BLOCK) as f64 + put_bytes,
        );
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
        kernels::replay(&chunks, store.config(), false, &mut layers);
        out.layers = layers;
    }
    out.counters = counters;
    out.recovery = recovery;
    out.trace = tr;
    out
}
