//! Proves the observability plane is free when detached and cheap when
//! attached.
//!
//! Runs a fig05-style workload (a preloaded backlog, duplicate-heavy
//! sequential writes racing an unthrottled background engine, then
//! redirection reads of the evicted backlog) three times over identical
//! seeds under a counting allocator:
//!
//! 1. twice with the default observer (registry only, no tracer or event
//!    log) — virtual-time signatures **and allocation counts** must be
//!    byte-/count-identical, proving the detached path is deterministic
//!    and allocation-free (an `Option` branch, nothing else);
//! 2. once with a traced [`dedup_obs::Observer`] attached (tracer and
//!    event log) and a [`dedup_core::DedupStore::health_report`] +
//!    capacity sample taken — the virtual-time signature must stay
//!    byte-identical (tracing and events only observe virtual time, never
//!    extend it), the redirection reads must show up as `redirect.*`
//!    spans, and wall-clock must stay within the declared budget.
//!
//! Results land in `BENCH_obs_overhead.json` (override with `--out PATH`).
//! `--smoke` shrinks the workload for CI; all assertions hold in both
//! modes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use dedup_bench::drivers::{run_closed_loop, run_closed_loop_with_background, OpSpec, RunStats};
use dedup_bench::systems::{BackgroundMode, DedupSystem, StorageSystem};
use dedup_core::{CachePolicy, DedupConfig};
use dedup_sim::SimTime;
use dedup_store::{ClientId, ObjectName};

/// Attached-path wall-clock budget: the observed run must finish within
/// this multiple of the slower detached run.
const WALL_BUDGET: f64 = 3.0;

const CHUNK: u32 = 32 * 1024;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// System allocator wrapper that counts allocation calls (allocs and
/// reallocs; frees are free).
struct CountingAlloc;

// SAFETY: pure delegation to `System`; the counter is a relaxed atomic.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn workload(i: u64, streams: u64) -> OpSpec {
    let stream = i % streams;
    let pos = i / streams;
    let block = CHUNK as u64;
    let per_obj = (1u64 << 20) / block;
    // Half the writes repeat a shared block so dedup, bloom, and the
    // fingerprint tiers all see real traffic.
    let data = if i.is_multiple_of(2) {
        vec![(i % 4) as u8 + 1; block as usize]
    } else {
        vec![(i % 251) as u8; block as usize]
    };
    OpSpec::write(
        format!("seq-{stream}-{}", pos / per_obj),
        (pos % per_obj) * block,
        data,
        ClientId((stream % 3) as u32),
    )
}

/// Everything a figure would print about a run, as one string: if any
/// byte differs between attached and detached runs, the observability
/// plane leaked into the virtual timing plane.
fn signature(write: &RunStats, read: &RunStats) -> String {
    let mut s = String::new();
    for (name, r) in [("write", write), ("read", read)] {
        let _ = writeln!(
            s,
            "{name}: ops={} bytes={} elapsed_ns={} mean_ns={} p50_ns={} p95_ns={} p99_ns={} \
             max_ns={} mbps={:.6} iops={:.6}",
            r.ops,
            r.bytes,
            r.elapsed.as_nanos(),
            r.latency.mean().as_nanos(),
            r.latency.percentile(50.0).as_nanos(),
            r.latency.percentile(95.0).as_nanos(),
            r.latency.percentile(99.0).as_nanos(),
            r.latency.max().as_nanos(),
            r.throughput_mbps(),
            r.iops(),
        );
    }
    s
}

struct RunOutcome {
    signature: String,
    wall_s: f64,
    allocs: u64,
    events: u64,
    spans: u64,
    redirect_spans: u64,
    health_components: u64,
}

/// One pass; `attached` puts a traced observer on the stack and drives
/// the health and capacity planes.
fn run_once(ops: u64, backlog: u64, attached: bool) -> RunOutcome {
    // Serial fingerprinting: thread spawns would make allocation counts
    // scheduling-dependent.
    let mut sys = DedupSystem::new(
        "obs-overhead",
        DedupConfig::with_chunk_size(CHUNK)
            .cache_policy(CachePolicy::EvictAll)
            .flush_parallelism(1),
    )
    .background(BackgroundMode::Unthrottled)
    .workers(8);
    if attached {
        let store = sys.store_mut();
        store.observe(store.observer().clone().traced());
    }
    let alloc0 = ALLOCS.load(Ordering::Relaxed);
    let t0 = Instant::now();
    // Backlog: flushed and evicted during the write phase, then
    // read back through the chunk pool (proxied redirection reads).
    for b in 0..backlog {
        let data: Vec<u8> = (0..CHUNK as u64)
            .map(|j| ((b * 131 + j * 7) % 251) as u8)
            .collect();
        let _ = sys
            .store()
            .write(
                ClientId(0),
                &ObjectName::new(format!("backlog-{}", b / 32)),
                (b % 32) * CHUNK as u64,
                &data,
                SimTime::ZERO,
            )
            .expect("backlog write");
    }
    sys.cluster_mut().perf_mut().pool.reset_all();
    let writes = run_closed_loop_with_background(&mut sys, 8, ops, 2, true, |i, _| workload(i, 8));
    let objects = (backlog / 32).max(1);
    let reads = run_closed_loop(&mut sys, 4, ops / 4, 3, |i, _| {
        OpSpec::read(
            format!("backlog-{}", i % objects),
            (i % 32) * CHUNK as u64,
            CHUNK as u64,
            ClientId(0),
        )
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let allocs = ALLOCS.load(Ordering::Relaxed) - alloc0;
    let mut outcome = RunOutcome {
        signature: signature(&writes, &reads),
        wall_s,
        allocs,
        events: 0,
        spans: 0,
        redirect_spans: 0,
        health_components: 0,
    };
    if attached {
        // Drive the pull planes too: they must not disturb the virtual
        // clock either (asserted via the signature in `main`).
        let now = reads.elapsed.max(writes.elapsed);
        let report = sys.store().health_report(now);
        let _ = sys.store().sample_capacity(now).expect("capacity sample");
        outcome.health_components = report.components.len() as u64;
        outcome.events = sys.store().events().expect("events attached").len() as u64;
        let export = sys.store().tracer().expect("tracer attached").export();
        let spans = export.ops.iter().flat_map(|o| &o.spans);
        outcome.spans = spans.clone().count() as u64 + export.wall_spans.len() as u64;
        outcome.redirect_spans = spans.filter(|s| s.name.contains("redirect.")).count() as u64;
    } else {
        assert!(
            sys.observer().tracer().is_none() && sys.observer().events().is_none(),
            "no tracer or event log when detached"
        );
    }
    outcome
}

/// Parses `--smoke` (shrink the workload for CI) and `--out PATH`
/// (results JSON, default `default_out`), panicking on any other
/// argument.
fn bench_args(default_out: &str) -> (bool, String) {
    let mut smoke = false;
    let mut out = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => out = Some(args.next().expect("--out needs a path")),
            other => panic!("unknown argument: {other} (expected --smoke | --out PATH)"),
        }
    }
    (smoke, out.unwrap_or_else(|| default_out.to_string()))
}

fn main() {
    let (smoke, out) = bench_args("BENCH_obs_overhead.json");
    let (ops, backlog) = if smoke { (600, 1024) } else { (6_000, 8_192) };

    println!("# bench_obs_overhead ({ops} ops, backlog {backlog})");
    let plain_a = run_once(ops, backlog, false);
    let plain_b = run_once(ops, backlog, false);
    let attached = run_once(ops, backlog, true);

    assert_eq!(
        plain_a.signature, plain_b.signature,
        "detached runs must be deterministic over the same seed"
    );
    assert_eq!(
        plain_a.allocs, plain_b.allocs,
        "the detached path must not allocate nondeterministically"
    );
    assert_eq!(
        plain_a.signature, attached.signature,
        "tracing, events and health must not perturb virtual-time results"
    );
    println!("virtual-time results byte-identical with and without the observer ✓");
    println!("detached-path allocation counts identical across runs ✓");
    print!("{}", plain_a.signature);

    let baseline_wall = plain_a.wall_s.max(plain_b.wall_s);
    let ratio = attached.wall_s / baseline_wall.max(1e-9);
    println!(
        "wall-clock: detached {:.3}s / {:.3}s, attached {:.3}s (ratio {:.3}, budget {WALL_BUDGET}x)",
        plain_a.wall_s, plain_b.wall_s, attached.wall_s, ratio
    );
    println!(
        "attached run: {} spans ({} redirect), {} events logged, {} health components checked, \
         {} extra allocation(s)",
        attached.spans,
        attached.redirect_spans,
        attached.events,
        attached.health_components,
        attached.allocs.saturating_sub(plain_a.allocs)
    );
    assert!(
        ratio <= WALL_BUDGET,
        "attached path exceeded its wall-clock budget: {ratio:.3} > {WALL_BUDGET}"
    );
    assert!(attached.health_components > 0, "health plane did not run");
    assert!(
        attached.redirect_spans > 0,
        "the redirection reads recorded no redirect spans"
    );

    let json = format!(
        "{{\"ops\":{ops},\"backlog\":{backlog},\
         \"detached\":{{\"wall_s_a\":{:.6},\"wall_s_b\":{:.6},\"allocs\":{}}},\
         \"attached\":{{\"wall_s\":{:.6},\"allocs\":{},\"spans\":{},\"redirect_spans\":{},\
         \"events\":{},\"health_components\":{}}},\
         \"wall_ratio\":{:.6},\"wall_budget\":{WALL_BUDGET},\"byte_identical\":true}}\n",
        plain_a.wall_s,
        plain_b.wall_s,
        plain_a.allocs,
        attached.wall_s,
        attached.allocs,
        attached.spans,
        attached.redirect_spans,
        attached.events,
        attached.health_components,
        ratio,
    );
    std::fs::write(&out, json).expect("write benchmark JSON");
    println!("results: {out}");
}
