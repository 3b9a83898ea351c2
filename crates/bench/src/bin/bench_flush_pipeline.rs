//! Wall-clock benchmark of the batched **stage → fingerprint → commit**
//! flush pipeline.
//!
//! Writes a fleet of dirty objects with unique chunk contents, then times
//! `DedupStore::flush_all` twice against identical data: once with
//! `flush_parallelism = 1` (the classic serial fingerprint stage) and once
//! with `flush_parallelism = 0` (all available cores). Virtual-time
//! results are identical by construction — the pipeline only changes
//! wall-clock — so the two runs must produce the same `FlushReport`
//! totals, and the benchmark fails loudly if they do not.
//!
//! Results land in `BENCH_flush_pipeline.json` (override with `--out
//! PATH`). A meaningful speedup needs real cores: on a multi-core
//! runner (≥4 cores) the parallel run is expected to reach ≥2× the
//! serial throughput; on a single-core host both runs are serial and
//! the speedup hovers around 1×.
//!
//! `--smoke` shrinks the workload for CI smoke tests (a few MiB instead of
//! ~128 MiB).

use std::time::Instant;

use dedup_bench::report::bench_args;
use dedup_core::{CachePolicy, DedupConfig, DedupStore, FlushReport};
use dedup_sim::SimTime;
use dedup_store::{ClientId, ClusterBuilder, ObjectName};

/// Workload dimensions for one benchmark run.
struct Shape {
    objects: usize,
    chunks_per_object: usize,
    chunk_size: u32,
}

impl Shape {
    fn full() -> Self {
        Shape {
            objects: 32,
            chunks_per_object: 4,
            chunk_size: 1024 * 1024,
        }
    }

    fn smoke() -> Self {
        Shape {
            objects: 8,
            chunks_per_object: 2,
            chunk_size: 256 * 1024,
        }
    }

    fn total_bytes(&self) -> u64 {
        self.objects as u64 * self.chunks_per_object as u64 * self.chunk_size as u64
    }
}

/// Deterministic per-object content; unique across objects so every chunk
/// is stored (no dedup shortcuts hiding fingerprint work).
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

struct RunResult {
    workers: usize,
    wall_secs: f64,
    mb_per_s: f64,
    report: FlushReport,
}

/// One full run: fresh cluster, identical data, timed `flush_all`.
fn run(parallelism: usize, shape: &Shape) -> RunResult {
    let cluster = ClusterBuilder::new().nodes(4).osds_per_node(4).build();
    let config = DedupConfig::with_chunk_size(shape.chunk_size)
        .cache_policy(CachePolicy::EvictAll)
        .flush_parallelism(parallelism)
        .flush_batch_size(16);
    let mut store = DedupStore::with_default_pools(cluster, config);
    let object_bytes = shape.chunks_per_object * shape.chunk_size as usize;
    for i in 0..shape.objects {
        let data = patterned(object_bytes, i as u64 + 1);
        let _ = store
            .write(
                ClientId(0),
                &ObjectName::new(format!("bench-{i}")),
                0,
                &data,
                SimTime::ZERO,
            )
            .expect("benchmark write");
    }
    let workers = store.fingerprint_parallelism();
    let start = Instant::now();
    let t = store
        .flush_all(SimTime::from_secs(3600))
        .expect("benchmark flush");
    let wall_secs = start.elapsed().as_secs_f64();
    let mb_per_s = shape.total_bytes() as f64 / 1e6 / wall_secs.max(1e-9);
    RunResult {
        workers,
        wall_secs,
        mb_per_s,
        report: t.value,
    }
}

/// Best-of-N to damp scheduler noise; reports must agree across every run.
fn best_of(iters: usize, parallelism: usize, shape: &Shape) -> RunResult {
    let mut best: Option<RunResult> = None;
    for _ in 0..iters {
        let r = run(parallelism, shape);
        if let Some(b) = &best {
            assert_eq!(b.report, r.report, "identical data must flush identically");
        }
        if best.as_ref().is_none_or(|b| r.wall_secs < b.wall_secs) {
            best = Some(r);
        }
    }
    best.expect("at least one iteration")
}

fn json_run(r: &RunResult) -> String {
    format!(
        "{{\"workers\": {}, \"wall_secs\": {:.6}, \"mb_per_s\": {:.2}, \
         \"chunks_flushed\": {}, \"chunks_created\": {}, \"chunks_deduped\": {}}}",
        r.workers,
        r.wall_secs,
        r.mb_per_s,
        r.report.chunks_flushed,
        r.report.chunks_created,
        r.report.chunks_deduped
    )
}

fn main() {
    let (smoke, out) = bench_args("BENCH_flush_pipeline.json");
    let shape = if smoke { Shape::smoke() } else { Shape::full() };
    let iters = if smoke { 2 } else { 3 };
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    println!("# bench_flush_pipeline");
    println!();
    println!(
        "{} objects x {} chunks x {} KiB = {:.1} MiB dirty data; best of {iters} runs; host cores: {host}",
        shape.objects,
        shape.chunks_per_object,
        shape.chunk_size / 1024,
        shape.total_bytes() as f64 / (1024.0 * 1024.0),
    );

    let serial = best_of(iters, 1, &shape);
    let parallel = best_of(iters, 0, &shape);
    assert_eq!(
        serial.report, parallel.report,
        "parallelism must not change flush outcomes"
    );
    let speedup = parallel.mb_per_s / serial.mb_per_s.max(1e-9);

    println!();
    println!("| fingerprint stage | workers | wall | throughput |");
    println!("|---|---|---|---|");
    println!(
        "| serial | {} | {:.3} s | {:.0} MB/s |",
        serial.workers, serial.wall_secs, serial.mb_per_s
    );
    println!(
        "| parallel | {} | {:.3} s | {:.0} MB/s |",
        parallel.workers, parallel.wall_secs, parallel.mb_per_s
    );
    println!();
    println!(
        "speedup: {speedup:.2}x (flush reports identical: {} chunks flushed, {} created)",
        serial.report.chunks_flushed, serial.report.chunks_created
    );

    let json = format!(
        "{{\n  \"bench\": \"flush_pipeline\",\n  \"smoke\": {smoke},\n  \"host_parallelism\": {host},\n  \
         \"shape\": {{\"objects\": {}, \"chunks_per_object\": {}, \"chunk_size\": {}}},\n  \
         \"serial\": {},\n  \"parallel\": {},\n  \"speedup\": {speedup:.3},\n  \"reports_equal\": true\n}}\n",
        shape.objects,
        shape.chunks_per_object,
        shape.chunk_size,
        json_run(&serial),
        json_run(&parallel),
    );
    std::fs::write(&out, json).expect("write benchmark JSON");
    println!("results: {out}");
}
