//! Copy-accounting benchmark for the zero-copy data plane.
//!
//! Pushes 256 MiB through the three data-plane phases — foreground
//! **write**, cached foreground **read**, background **flush** — and a
//! post-flush read, while watching the stack's two copy counters:
//!
//! * `engine.bytes_copied` — payload bytes that still cross a deep copy
//!   (memcpy) anywhere in the engine or the cluster underneath, and
//! * `engine.bytes_shared` — payload bytes moved by an `Arc` refcount
//!   bump where the pre-zero-copy design memcpy'd.
//!
//! The headline number is the **copy reduction**
//! `shared / (shared + copied)`: the fraction of byte movement the
//! ref-counted [`bytes::Bytes`] buffers eliminated relative to the old
//! copy-everything plane. The benchmark fails loudly if the reduction
//! drops below 50% or if a cached foreground read performs *any* deep
//! copy — those are the regressions this binary exists to catch.
//!
//! Results land in `BENCH_zero_copy.json` (override with `--out PATH`).
//! `--smoke` shrinks the workload to a few MiB for CI smoke tests.

use std::time::Instant;

use bytes::Bytes;
use dedup_bench::report::bench_args;
use dedup_core::{DedupConfig, DedupStore};
use dedup_obs::Counter;
use dedup_sim::SimTime;
use dedup_store::{ClientId, ClusterBuilder, ObjectName};

/// Workload dimensions for one benchmark run.
struct Shape {
    objects: usize,
    chunks_per_object: usize,
    chunk_size: u32,
}

impl Shape {
    /// 64 objects x 4 chunks x 1 MiB = 256 MiB.
    fn full() -> Self {
        Shape {
            objects: 64,
            chunks_per_object: 4,
            chunk_size: 1024 * 1024,
        }
    }

    /// 8 objects x 2 chunks x 256 KiB = 4 MiB.
    fn smoke() -> Self {
        Shape {
            objects: 8,
            chunks_per_object: 2,
            chunk_size: 256 * 1024,
        }
    }

    fn object_bytes(&self) -> usize {
        self.chunks_per_object * self.chunk_size as usize
    }

    fn total_bytes(&self) -> u64 {
        self.objects as u64 * self.object_bytes() as u64
    }
}

/// Deterministic per-object content; unique across objects so every chunk
/// is actually stored.
fn patterned(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u8
        })
        .collect()
}

/// Copy counters before/after one phase, plus wall time.
struct Phase {
    name: &'static str,
    bytes_moved: u64,
    copied: u64,
    shared: u64,
    wall_secs: f64,
}

impl Phase {
    fn mb_per_s(&self) -> f64 {
        self.bytes_moved as f64 / 1e6 / self.wall_secs.max(1e-9)
    }

    fn json(&self) -> String {
        format!(
            "{{\"phase\": \"{}\", \"bytes_moved\": {}, \"bytes_copied\": {}, \
             \"bytes_shared\": {}, \"wall_secs\": {:.6}, \"mb_per_s\": {:.2}}}",
            self.name,
            self.bytes_moved,
            self.copied,
            self.shared,
            self.wall_secs,
            self.mb_per_s()
        )
    }
}

/// Runs `f`, charging the copy-counter deltas and wall time to a phase.
fn measure(
    name: &'static str,
    bytes_moved: u64,
    copied: &Counter,
    shared: &Counter,
    f: impl FnOnce(),
) -> Phase {
    let (c0, s0) = (copied.get(), shared.get());
    let start = Instant::now();
    f();
    Phase {
        name,
        bytes_moved,
        copied: copied.get() - c0,
        shared: shared.get() - s0,
        wall_secs: start.elapsed().as_secs_f64(),
    }
}

fn main() {
    let (smoke, out) = bench_args("BENCH_zero_copy.json");
    let shape = if smoke { Shape::smoke() } else { Shape::full() };

    let cluster = ClusterBuilder::new().nodes(4).osds_per_node(4).build();
    let config = DedupConfig::with_chunk_size(shape.chunk_size);
    let mut store = DedupStore::with_default_pools(cluster, config);
    // Get-or-create returns handles to the very counters the stack bumps.
    let copied = store.registry().counter("engine.bytes_copied");
    let shared = store.registry().counter("engine.bytes_shared");

    println!("# bench_zero_copy");
    println!();
    println!(
        "{} objects x {} chunks x {} KiB = {:.1} MiB",
        shape.objects,
        shape.chunks_per_object,
        shape.chunk_size / 1024,
        shape.total_bytes() as f64 / (1024.0 * 1024.0),
    );

    let names: Vec<ObjectName> = (0..shape.objects)
        .map(|i| ObjectName::new(format!("bench-{i}")))
        .collect();
    let payloads: Vec<Bytes> = (0..shape.objects)
        .map(|i| Bytes::from(patterned(shape.object_bytes(), i as u64 + 1)))
        .collect();
    let len = shape.object_bytes() as u64;

    let write = measure("write", shape.total_bytes(), &copied, &shared, || {
        for (name, data) in names.iter().zip(&payloads) {
            let _ = store
                .write(ClientId(0), name, 0, data.clone(), SimTime::ZERO)
                .expect("benchmark write");
        }
    });

    let read_cached = measure("read_cached", shape.total_bytes(), &copied, &shared, || {
        for (name, data) in names.iter().zip(&payloads) {
            let t = store
                .read(ClientId(0), name, 0, len, SimTime::from_secs(1))
                .expect("benchmark read");
            assert_eq!(t.value, *data, "cached read returned wrong bytes");
        }
    });

    let flush = measure("flush", shape.total_bytes(), &copied, &shared, || {
        let _ = store
            .flush_all(SimTime::from_secs(3600))
            .expect("benchmark flush");
    });

    let read_flushed = measure(
        "read_flushed",
        shape.total_bytes(),
        &copied,
        &shared,
        || {
            for (name, data) in names.iter().zip(&payloads) {
                let t = store
                    .read(ClientId(0), name, 0, len, SimTime::from_secs(7200))
                    .expect("benchmark read after flush");
                assert_eq!(t.value, *data, "post-flush read returned wrong bytes");
            }
        },
    );

    let phases = [write, read_cached, flush, read_flushed];
    println!();
    println!("| phase | moved | deep-copied | shared (zero-copy) | wall | throughput |");
    println!("|---|---|---|---|---|---|");
    for p in &phases {
        println!(
            "| {} | {:.1} MiB | {:.1} MiB | {:.1} MiB | {:.3} s | {:.0} MB/s |",
            p.name,
            p.bytes_moved as f64 / (1024.0 * 1024.0),
            p.copied as f64 / (1024.0 * 1024.0),
            p.shared as f64 / (1024.0 * 1024.0),
            p.wall_secs,
            p.mb_per_s()
        );
    }

    let total_copied: u64 = phases.iter().map(|p| p.copied).sum();
    let total_shared: u64 = phases.iter().map(|p| p.shared).sum();
    let reduction = total_shared as f64 / (total_shared + total_copied).max(1) as f64;
    println!();
    println!(
        "copy reduction: {:.1}% ({:.1} MiB shared vs {:.1} MiB still copied)",
        reduction * 100.0,
        total_shared as f64 / (1024.0 * 1024.0),
        total_copied as f64 / (1024.0 * 1024.0),
    );

    // The two regressions this benchmark exists to catch.
    assert_eq!(
        phases[1].copied, 0,
        "cached foreground reads must be zero-copy"
    );
    assert!(
        reduction >= 0.5,
        "zero-copy plane must eliminate >=50% of byte movement, got {:.1}%",
        reduction * 100.0
    );

    let json = format!(
        "{{\n  \"bench\": \"zero_copy\",\n  \"smoke\": {smoke},\n  \
         \"shape\": {{\"objects\": {}, \"chunks_per_object\": {}, \"chunk_size\": {}}},\n  \
         \"phases\": [\n    {}\n  ],\n  \
         \"total_bytes_copied\": {total_copied},\n  \"total_bytes_shared\": {total_shared},\n  \
         \"copy_reduction\": {reduction:.4},\n  \"read_cached_zero_copy\": true\n}}\n",
        shape.objects,
        shape.chunks_per_object,
        shape.chunk_size,
        phases
            .iter()
            .map(Phase::json)
            .collect::<Vec<_>>()
            .join(",\n    "),
    );
    std::fs::write(&out, json).expect("write benchmark JSON");
    println!("results: {out}");
}
