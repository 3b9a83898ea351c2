//! Durability-plane benchmark: WAL append/replay throughput and the
//! crash-recovery-time distribution.
//!
//! Three measurements, all over the deterministic in-memory backend
//! ([`MemWalBackend`]) so the numbers isolate the logging protocol from
//! device speed:
//!
//! 1. **append** — a mixed write/flush/GC workload over a WAL-attached
//!    store; headline number is logged transactions per second and the
//!    payload MB/s the log sustained.
//! 2. **checkpoint + replay** — compact the log into segments, then
//!    rebuild an identically-shaped cluster and replay the whole WAL
//!    (segments + log tails); headline number is records replayed per
//!    second.
//! 3. **recovery distribution** — re-run a small crash workload once per
//!    sampled crash point (clean and torn kills spread across the fsync
//!    journal), timing full [`DedupStore::recover_after_crash`] — WAL
//!    replay, dirty-queue scan, bloom rebuild, flush, GC, checkpoint —
//!    and reporting min/p50/p90/max.
//!
//! The benchmark fails loudly if replay reports errors, if any sampled
//! recovery leaves dangling references or leaked chunks, or if a
//! post-replay read returns the wrong bytes — the regressions this
//! binary exists to catch.
//!
//! Results land in `BENCH_wal.json` (override with `--out PATH`).
//! `--smoke` shrinks the workload for CI.

use std::time::Instant;

use dedup_bench::report::bench_args;
use dedup_core::{
    enumerate_crash_points, plan_for, rebuilt_store, wal_store, CrashTopology, DedupConfig,
    DedupError, DedupStore,
};
use dedup_sim::SimTime;
use dedup_store::{ClientId, ObjectName};

/// Workload dimensions for the append/replay phases.
struct Shape {
    objects: usize,
    chunks_per_object: usize,
    chunk_size: u32,
    /// Crash points sampled for the recovery-time distribution.
    recovery_samples: usize,
}

impl Shape {
    /// 48 objects x 4 chunks x 128 KiB = 24 MiB, 24 recovery samples.
    fn full() -> Self {
        Shape {
            objects: 48,
            chunks_per_object: 4,
            chunk_size: 128 * 1024,
            recovery_samples: 24,
        }
    }

    /// 8 objects x 2 chunks x 32 KiB = 512 KiB, 6 recovery samples.
    fn smoke() -> Self {
        Shape {
            objects: 8,
            chunks_per_object: 2,
            chunk_size: 32 * 1024,
            recovery_samples: 6,
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
/// is actually stored (then partially rewritten for dedup traffic).
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

/// Mixed workload: unique writes, a flush, duplicate rewrites (dedup
/// hits), another flush, and a GC pass — exercising every WAL op kind.
/// Returns `Err` when an injected crash kills the backend mid-run.
fn run_workload(store: &mut DedupStore, shape: &Shape) -> Result<(), DedupError> {
    let len = shape.object_bytes();
    for i in 0..shape.objects {
        let name = ObjectName::new(format!("wal-{i}"));
        let data = patterned(len, i as u64 + 1);
        let _ = store.write(ClientId(0), &name, 0, &data, SimTime::ZERO)?;
    }
    let _ = store.flush_all(SimTime::from_secs(3600))?;
    // Every odd object takes object 0's content: dedup hits + derefs.
    let dup = patterned(len, 1);
    for i in (1..shape.objects).step_by(2) {
        let name = ObjectName::new(format!("wal-{i}"));
        let _ = store.write(ClientId(0), &name, 0, &dup, SimTime::from_secs(7200))?;
    }
    let _ = store.flush_all(SimTime::from_secs(14400))?;
    let _ = store.gc_chunk_pool()?;
    Ok(())
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() - 1) as f64 * p).round() as usize;
    sorted_ms[idx]
}

fn main() {
    let (smoke, out) = bench_args("BENCH_wal.json");
    let shape = if smoke { Shape::smoke() } else { Shape::full() };
    let topology = CrashTopology::default();
    let config = DedupConfig::with_chunk_size(shape.chunk_size);

    println!("# bench_wal");
    println!();
    println!(
        "{} objects x {} chunks x {} KiB = {:.1} MiB, {} recovery samples",
        shape.objects,
        shape.chunks_per_object,
        shape.chunk_size / 1024,
        shape.total_bytes() as f64 / (1024.0 * 1024.0),
        shape.recovery_samples,
    );

    // ---- Phase 1: append throughput -----------------------------------
    let (mut store, backend) = wal_store(topology, config.clone());
    let start = Instant::now();
    run_workload(&mut store, &shape).expect("benchmark workload");
    let append_secs = start.elapsed().as_secs_f64();
    let appends = backend
        .journal()
        .iter()
        .filter(|r| r.label == "wal.append")
        .count() as u64;
    let log_bytes = backend.stable_bytes();
    assert!(appends > 0, "workload must log transactions");
    let appends_per_s = appends as f64 / append_secs.max(1e-9);
    let append_mb_per_s = shape.total_bytes() as f64 / 1e6 / append_secs.max(1e-9);
    println!();
    println!(
        "append:     {appends} logged transactions in {append_secs:.3} s \
         ({appends_per_s:.0} tx/s, {append_mb_per_s:.0} MB/s payload, {log_bytes} stable bytes)"
    );

    // ---- Phase 2: checkpoint, then full replay ------------------------
    let start = Instant::now();
    let ck = store
        .cluster()
        .wal_checkpoint()
        .expect("benchmark checkpoint");
    let checkpoint_secs = start.elapsed().as_secs_f64();
    println!(
        "checkpoint: epoch {} — {} objects into {} segments ({} bytes) in {checkpoint_secs:.3} s",
        ck.epoch, ck.objects, ck.segments, ck.segment_bytes
    );

    let replayed_store = rebuilt_store(topology, config.clone(), backend.clone());
    let mut replayed_store = replayed_store;
    let start = Instant::now();
    let rep = replayed_store
        .cluster_mut()
        .wal_recover()
        .expect("benchmark replay");
    let replay_secs = start.elapsed().as_secs_f64();
    let replay_records = rep.checkpoint_records + rep.log_records_replayed;
    assert_eq!(
        rep.replay_errors, 0,
        "replay onto a faithful rebuild is clean"
    );
    let replay_per_s = replay_records as f64 / replay_secs.max(1e-9);
    println!(
        "replay:     {replay_records} records ({} checkpoint + {} log) in {replay_secs:.3} s \
         ({replay_per_s:.0} rec/s)",
        rep.checkpoint_records, rep.log_records_replayed
    );
    // Replay fidelity gate: a replayed object must read back byte-exact.
    let want = patterned(shape.object_bytes(), 1);
    let got = replayed_store
        .read(
            ClientId(0),
            &ObjectName::new("wal-0"),
            0,
            shape.object_bytes() as u64,
            SimTime::from_secs(20000),
        )
        .expect("post-replay read");
    assert_eq!(got.value, want, "replayed object must read back byte-exact");

    // ---- Phase 3: recovery-time distribution --------------------------
    // Enumerate crash points from a small reference crash workload, then
    // sample evenly across the journal (clean and torn kills alternate by
    // enumeration order) and time full recovery at each.
    let crash_shape = Shape {
        objects: 6,
        chunks_per_object: 2,
        chunk_size: 32 * 1024,
        recovery_samples: shape.recovery_samples,
    };
    let crash_config = DedupConfig::with_chunk_size(crash_shape.chunk_size);
    let (mut reference, ref_backend) = wal_store(topology, crash_config.clone());
    run_workload(&mut reference, &crash_shape).expect("reference crash workload");
    let points = enumerate_crash_points(&ref_backend);
    assert!(!points.is_empty(), "reference run must expose crash points");
    let stride = (points.len() / shape.recovery_samples.max(1)).max(1);
    let sampled: Vec<_> = points.iter().copied().step_by(stride).collect();

    let mut recovery_ms: Vec<f64> = Vec::with_capacity(sampled.len());
    for point in &sampled {
        let (mut victim, victim_backend) = wal_store(topology, crash_config.clone());
        victim_backend.set_crash_plan(Some(plan_for(*point)));
        // The workload dies at the injected crash; that's the point.
        let died = run_workload(&mut victim, &crash_shape).is_err();
        assert!(
            died && victim_backend.crashed(),
            "crash plan at ticket {} must fire",
            point.ticket
        );
        drop(victim);

        let start = Instant::now();
        let mut survivor = rebuilt_store(topology, crash_config.clone(), victim_backend);
        let report = survivor
            .recover_after_crash(SimTime::from_secs(30000))
            .expect("recovery");
        recovery_ms.push(start.elapsed().as_secs_f64() * 1e3);
        assert_eq!(report.wal.replay_errors, 0, "recovery replay is clean");
        assert!(
            survivor.verify_references().expect("verify").is_empty(),
            "recovery leaves no dangling references"
        );
        assert!(
            survivor.find_leaked_chunks().expect("leaks").is_empty(),
            "recovery leaves no leaked chunks"
        );
    }
    recovery_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let (rec_min, rec_max) = (recovery_ms[0], recovery_ms[recovery_ms.len() - 1]);
    let rec_p50 = percentile(&recovery_ms, 0.5);
    let rec_p90 = percentile(&recovery_ms, 0.9);
    let rec_mean = recovery_ms.iter().sum::<f64>() / recovery_ms.len() as f64;
    println!(
        "recovery:   {} samples over {} crash points — min {rec_min:.2} ms, p50 {rec_p50:.2} ms, \
         p90 {rec_p90:.2} ms, max {rec_max:.2} ms",
        sampled.len(),
        points.len(),
    );

    let json = format!(
        "{{\n  \"bench\": \"wal\",\n  \"smoke\": {smoke},\n  \
         \"shape\": {{\"objects\": {}, \"chunks_per_object\": {}, \"chunk_size\": {}}},\n  \
         \"append\": {{\"logged_tx\": {appends}, \"wall_secs\": {append_secs:.6}, \
         \"tx_per_s\": {appends_per_s:.2}, \"payload_mb_per_s\": {append_mb_per_s:.2}, \
         \"stable_bytes\": {log_bytes}}},\n  \
         \"checkpoint\": {{\"epoch\": {}, \"objects\": {}, \"segments\": {}, \
         \"segment_bytes\": {}, \"wall_secs\": {checkpoint_secs:.6}}},\n  \
         \"replay\": {{\"records\": {replay_records}, \"checkpoint_records\": {}, \
         \"log_records\": {}, \"replay_errors\": 0, \"wall_secs\": {replay_secs:.6}, \
         \"records_per_s\": {replay_per_s:.2}}},\n  \
         \"recovery\": {{\"crash_points\": {}, \"samples\": {}, \"min_ms\": {rec_min:.3}, \
         \"p50_ms\": {rec_p50:.3}, \"p90_ms\": {rec_p90:.3}, \"max_ms\": {rec_max:.3}, \
         \"mean_ms\": {rec_mean:.3}}},\n  \
         \"replay_byte_exact\": true,\n  \"recoveries_reference_clean\": true\n}}\n",
        shape.objects,
        shape.chunks_per_object,
        shape.chunk_size,
        ck.epoch,
        ck.objects,
        ck.segments,
        ck.segment_bytes,
        rep.checkpoint_records,
        rep.log_records_replayed,
        points.len(),
        sampled.len(),
    );
    std::fs::write(&out, json).expect("write benchmark JSON");
    println!();
    println!("results: {out}");
}
