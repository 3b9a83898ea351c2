//! Kernel replay over a workload's own stored chunks: the per-byte cost
//! of each hashing, codec, WAL and transact kernel the flush, read and
//! recovery paths run, and the ratio of the virtual-time cost models to
//! those measurements.

use std::hint::black_box;
use std::time::Instant;

use bytes::Bytes;
use dedup_core::refs::encode_refcount;
use dedup_core::{BackRef, DedupConfig, DedupStore, COMPRESS_XATTR, REFCOUNT_XATTR};
use dedup_fingerprint::{ChunkSig, Fingerprint};
use dedup_store::{
    crc32, ClusterBuilder, IoCtx, MemWalBackend, ObjectName, PoolConfig, TxOp, WalRecord,
};

use crate::checks::Checks;
use crate::report::Values;

/// Upper bound on the chunks sampled from the pool.
const SAMPLE_CHUNKS: usize = 256;
/// Minimum wall time per kernel measurement.
const MIN_KERNEL_S: f64 = 0.05;

/// Raw (decompressed) contents of up to [`SAMPLE_CHUNKS`] chunk objects,
/// taken at an even stride over the pool's sorted names.
pub fn sample_chunks(store: &DedupStore, checks: &mut Checks) -> Vec<Bytes> {
    let pool = store.chunk_pool();
    let Some(mut names) = checks.ok(store.cluster().list_objects(pool), "list chunk pool") else {
        return Vec::new();
    };
    names.sort();
    let stride = names.len().div_ceil(SAMPLE_CHUNKS).max(1);
    let ctx = IoCtx::new(pool);
    let mut out = Vec::new();
    for name in names.iter().step_by(stride) {
        let Some(stored) = checks.ok(store.cluster().read_full(&ctx, name), "read chunk") else {
            continue;
        };
        let compressed = store
            .cluster()
            .get_xattr(&ctx, name, COMPRESS_XATTR)
            .map(|t| t.value.is_some())
            .unwrap_or(false);
        if compressed {
            if let Some(raw) = checks.ok(dedup_compress::decompress(&stored.value), "decompress") {
                out.push(Bytes::from(raw));
            }
        } else {
            out.push(stored.value);
        }
    }
    out
}

/// Runs `f` over the whole sample until [`MIN_KERNEL_S`] has passed and
/// returns nanoseconds per byte of input.
fn ns_per_byte<T>(inputs: &[T], len: impl Fn(&T) -> usize, mut f: impl FnMut(&T)) -> f64 {
    let bytes: usize = inputs.iter().map(&len).sum();
    if bytes == 0 {
        return 0.0;
    }
    let start = Instant::now();
    let mut passes = 0u64;
    loop {
        for x in inputs {
            f(x);
        }
        passes += 1;
        if start.elapsed().as_secs_f64() >= MIN_KERNEL_S {
            break;
        }
    }
    start.elapsed().as_nanos() as f64 / (passes as f64 * bytes as f64)
}

/// Measures the kernels the workload's configuration runs over `chunks`
/// and stores the per-layer values: fingerprinting and the chunk-creating
/// transaction always, the codec only with compression on and the WAL
/// framing only with a WAL attached (the others read zero).
pub fn replay(chunks: &[Bytes], config: &DedupConfig, wal: bool, layers: &mut Values) {
    if chunks.is_empty() {
        return;
    }
    let len = |c: &Bytes| c.len();
    let per_gib = |nanos: u64| nanos as f64 / (1u64 << 30) as f64;
    let fp = ns_per_byte(chunks, len, |c| {
        black_box(Fingerprint::of(black_box(c)));
    });
    let sig = ns_per_byte(chunks, len, |c| {
        black_box(ChunkSig::of(black_box(c)));
    });
    layers.set("fingerprint.of.ns_per_byte", fp);
    layers.set(
        "fingerprint.of.model_ratio",
        per_gib(config.fingerprint_cost.nanos_for(1 << 30)) / fp,
    );
    layers.set("fingerprint.sig.ns_per_byte", sig);
    layers.set(
        "store.cluster.transact.us_per_chunk",
        transact_us_per_chunk(chunks, wal),
    );

    if config.compression.enabled {
        let cost = config.compression.cost;
        let comp = ns_per_byte(chunks, len, |c| {
            black_box(dedup_compress::compress(black_box(c)));
        });
        let packed: Vec<(Vec<u8>, usize)> = chunks
            .iter()
            .map(|c| (dedup_compress::compress(c), c.len()))
            .collect();
        // Per byte of decompressed output, as the cost model charges it.
        let decomp = ns_per_byte(
            &packed,
            |p| p.1,
            |p| {
                black_box(dedup_compress::decompress(black_box(&p.0)).expect("own output decodes"));
            },
        );
        layers.set("compress.compress.ns_per_byte", comp);
        layers.set(
            "compress.compress.model_ratio",
            per_gib(cost.compress_nanos(1 << 30)) / comp,
        );
        layers.set("compress.decompress.ns_per_byte", decomp);
        layers.set(
            "compress.decompress.model_ratio",
            per_gib(cost.decompress_nanos(1 << 30)) / decomp,
        );
    }

    if wal {
        let crc = ns_per_byte(chunks, len, |c| {
            black_box(crc32(black_box(c)));
        });
        let records: Vec<WalRecord> = chunks
            .iter()
            .enumerate()
            .map(|(i, c)| WalRecord {
                seq: i as u64 + 1,
                pool: dedup_placement::PoolId(1),
                name: ObjectName::new(Fingerprint::of(c).to_object_name()),
                ops: vec![TxOp::WriteFull(c.clone())],
            })
            .collect();
        let encode = ns_per_byte(&records, chunk_len, |r| {
            black_box(black_box(r).encode());
        });
        layers.set("store.wal.crc32.ns_per_byte", crc);
        layers.set("store.wal.encode.ns_per_byte", encode);
    }
}

fn chunk_len(r: &WalRecord) -> usize {
    r.ops
        .iter()
        .map(|op| match op {
            TxOp::WriteFull(d) => d.len(),
            _ => 0,
        })
        .sum()
}

/// Replays the commit path's chunk-creating transaction (payload,
/// refcount xattr, one back reference) for every sampled chunk onto fresh
/// clusters shaped like the workload's, until [`MIN_KERNEL_S`] of
/// transactions have run, and returns microseconds per chunk.
fn transact_us_per_chunk(chunks: &[Bytes], wal: bool) -> f64 {
    let mut busy_ns = 0u128;
    let mut done = 0u64;
    while busy_ns < (MIN_KERNEL_S * 1e9) as u128 {
        let mut cluster = ClusterBuilder::new().nodes(4).osds_per_node(4).build();
        if wal {
            cluster.attach_wal(MemWalBackend::shared());
        }
        let pool = cluster.create_pool(PoolConfig::replicated("chunks", 2));
        let ctx = IoCtx::new(pool);
        let txs: Vec<(ObjectName, Vec<TxOp>)> = chunks
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let backref = BackRef::new(pool, ObjectName::new(format!("obj-{i}")), 0);
                (
                    ObjectName::new(Fingerprint::of(c).to_object_name()),
                    vec![
                        TxOp::WriteFull(c.clone()),
                        TxOp::SetXattr(REFCOUNT_XATTR.into(), encode_refcount(1).into()),
                        TxOp::SetOmap(backref.key(), backref.encode_value().into()),
                    ],
                )
            })
            .collect();
        let start = Instant::now();
        for (name, ops) in txs {
            // A replay failure only loses this figure; the workload's own
            // transactions are checked by the round.
            let _ = black_box(cluster.transact(&ctx, &name, ops));
        }
        busy_ns += start.elapsed().as_nanos();
        done += chunks.len() as u64;
    }
    busy_ns as f64 / 1e3 / done as f64
}
