//! Gate benchmark for the inline compression plane.
//!
//! Pushes a 256 MiB mixed workload (incompressible + compressible +
//! VM-image) through the chunk-pool compression plane and enforces the
//! four regressions this binary exists to catch:
//!
//! 1. **Zero extra copies on the stored-raw path** — with compression on,
//!    an all-incompressible workload must show *exactly* the
//!    `engine.bytes_copied` trajectory of a compression-off store: the
//!    CoW fast path keeps the original `Bytes` view when compression
//!    doesn't pay.
//! 2. **Post-compression fingerprinting touches fewer bytes** —
//!    `engine.fp.full_hash_bytes` under `FingerprintDomain::Compressed`
//!    must not exceed the raw-domain count for the same workload.
//! 3. **Capacity savings** — the VM-image workload (compressible OS
//!    region) must store ≥ 30% fewer unique chunk-pool bytes with the
//!    plane enabled.
//! 4. **Identical read-back** — full-object read checksums must agree
//!    across {compression off, raw domain, compressed domain}.
//!
//! Results land in `BENCH_compress.json` (override with `--out PATH`).
//! `--smoke` shrinks the workload for CI.

use dedup_bench::report::bench_args;
use dedup_core::{DedupConfig, DedupStore, FingerprintDomain};
use dedup_sim::SimTime;
use dedup_store::{ClientId, ClusterBuilder, ObjectName};
use dedup_workloads::vm_images::VmImageSpec;

/// Workload dimensions for one benchmark run.
struct Shape {
    /// Incompressible objects × bytes each (gate 1).
    raw_objects: usize,
    raw_object_bytes: usize,
    /// Mixed objects × bytes each (gates 2 and 4).
    mixed_objects: usize,
    mixed_object_bytes: usize,
    /// VM images × bytes each (gate 3).
    images: usize,
    image_bytes: u64,
    chunk_size: u32,
}

impl Shape {
    /// 64 + 32×4 + 8×8 MiB ≈ 256 MiB.
    fn full() -> Self {
        Shape {
            raw_objects: 64,
            raw_object_bytes: 1 << 20,
            mixed_objects: 32,
            mixed_object_bytes: 4 << 20,
            images: 8,
            image_bytes: 8 << 20,
            chunk_size: 128 * 1024,
        }
    }

    /// A few MiB for CI.
    fn smoke() -> Self {
        Shape {
            raw_objects: 8,
            raw_object_bytes: 256 * 1024,
            mixed_objects: 4,
            mixed_object_bytes: 512 * 1024,
            images: 3,
            image_bytes: 1 << 20,
            chunk_size: 64 * 1024,
        }
    }
}

/// Pseudorandom bytes: every chunk falls back to raw storage.
fn rand_bytes(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 32) as u8
        })
        .collect()
}

/// Mixed payload: compressible head, incompressible middle, duplicated
/// compressible tail — exercises kept-compressed chunks, raw fallbacks,
/// and dedup in one object.
fn mixed_bytes(len: usize, seed: u64) -> Vec<u8> {
    let third = len / 3;
    let b = ((seed >> 3) as u8) | 1;
    let mut v: Vec<u8> = (0..third)
        .map(|i| if i % 64 < 56 { b } else { (i % 7) as u8 })
        .collect();
    v.extend(rand_bytes(third, seed ^ 0xDEAD));
    v.extend_from_within(..len - 2 * third);
    v
}

fn fnv1a(data: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &byte in data {
        h ^= byte as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn store(config: DedupConfig) -> DedupStore {
    let cluster = ClusterBuilder::new().nodes(4).osds_per_node(4).build();
    DedupStore::with_default_pools(cluster, config)
}

fn counter(s: &DedupStore, name: &str) -> u64 {
    s.registry().counter(name).get()
}

/// Writes `objects`, flushes, reads everything back; returns the
/// combined read-back checksum.
fn run_workload(s: &mut DedupStore, objects: &[(String, Vec<u8>)]) -> u64 {
    for (name, data) in objects {
        let _ = s
            .write(
                ClientId(0),
                &ObjectName::new(name.as_str()),
                0,
                data.clone(),
                SimTime::ZERO,
            )
            .expect("bench write");
    }
    let _ = s.flush_all(SimTime::from_secs(3_600)).expect("bench flush");
    let mut checksum = 0u64;
    for (name, data) in objects {
        let t = s
            .read(
                ClientId(0),
                &ObjectName::new(name.as_str()),
                0,
                data.len() as u64,
                SimTime::from_secs(7_200),
            )
            .expect("bench read");
        assert_eq!(t.value.len(), data.len(), "short read of {name}");
        checksum ^= fnv1a(&t.value).rotate_left(fnv1a(name.as_bytes()) as u32 % 63);
    }
    checksum
}

fn main() {
    let (smoke, out) = bench_args("BENCH_compress.json");
    let shape = if smoke { Shape::smoke() } else { Shape::full() };
    let total_mib = (shape.raw_objects * shape.raw_object_bytes
        + shape.mixed_objects * shape.mixed_object_bytes
        + shape.images * shape.image_bytes as usize) as f64
        / (1024.0 * 1024.0);

    println!("# bench_compress");
    println!();
    println!(
        "{} MiB incompressible + {} MiB mixed + {} MiB VM images = {total_mib:.0} MiB, \
         {} KiB chunks",
        shape.raw_objects * shape.raw_object_bytes / (1 << 20),
        shape.mixed_objects * shape.mixed_object_bytes / (1 << 20),
        shape.images as u64 * shape.image_bytes / (1 << 20),
        shape.chunk_size / 1024,
    );

    // Gate 1: stored-raw path copies nothing the baseline doesn't.
    let raw_objects: Vec<(String, Vec<u8>)> = (0..shape.raw_objects)
        .map(|i| {
            (
                format!("raw-{i}"),
                rand_bytes(shape.raw_object_bytes, i as u64 + 1),
            )
        })
        .collect();
    let mut off = store(DedupConfig::with_chunk_size(shape.chunk_size));
    let sum_off = run_workload(&mut off, &raw_objects);
    let mut on = store(DedupConfig::with_chunk_size(shape.chunk_size).compress());
    let sum_on = run_workload(&mut on, &raw_objects);
    let (copied_off, copied_on) = (
        counter(&off, "engine.bytes_copied"),
        counter(&on, "engine.bytes_copied"),
    );
    let fallbacks = counter(&on, "engine.compress.raw_fallbacks");
    println!();
    println!(
        "stored-raw gate: bytes_copied off={copied_off} on={copied_on}, \
         {fallbacks} raw fallbacks, 0 compressed chunks"
    );
    assert_eq!(sum_off, sum_on, "incompressible read-back diverged");
    assert!(
        fallbacks > 0,
        "workload failed to exercise the raw fallback"
    );
    assert_eq!(
        counter(&on, "engine.compress.stored_chunks"),
        0,
        "pseudorandom chunks must not compress"
    );
    assert_eq!(
        copied_on, copied_off,
        "stored-raw path copied extra bytes with compression enabled"
    );

    // Gates 2 and 4: mixed workload across all three modes.
    let mixed_objects: Vec<(String, Vec<u8>)> = (0..shape.mixed_objects)
        .map(|i| {
            (
                format!("mix-{i}"),
                mixed_bytes(shape.mixed_object_bytes, i as u64 + 101),
            )
        })
        .collect();
    let modes: Vec<(&str, DedupConfig)> = vec![
        ("off", DedupConfig::with_chunk_size(shape.chunk_size)),
        (
            "raw-domain",
            DedupConfig::with_chunk_size(shape.chunk_size).compress(),
        ),
        (
            "compressed-domain",
            DedupConfig::with_chunk_size(shape.chunk_size)
                .compress()
                .compress_domain(FingerprintDomain::Compressed),
        ),
    ];
    let mut checksums = Vec::new();
    let mut full_hash = Vec::new();
    for (label, config) in modes {
        let mut s = store(config);
        let sum = run_workload(&mut s, &mixed_objects);
        let hashed = counter(&s, "engine.fp.full_hash_bytes");
        println!("mixed[{label}]: checksum={sum:016x} full_hash_bytes={hashed}");
        checksums.push(sum);
        full_hash.push(hashed);
    }
    assert!(
        checksums.iter().all(|&c| c == checksums[0]),
        "read-back checksums diverged across modes: {checksums:x?}"
    );
    assert!(
        full_hash[2] <= full_hash[1],
        "compressed-domain full hashing touched more bytes than raw-domain \
         ({} vs {})",
        full_hash[2],
        full_hash[1]
    );

    // Gate 3: VM-image capacity savings.
    let spec = VmImageSpec {
        images: shape.images,
        image_bytes: shape.image_bytes,
        block_size: shape.chunk_size,
        ..Default::default()
    };
    let vm_objects: Vec<(String, Vec<u8>)> = spec
        .all_images()
        .into_iter()
        .map(|o| (o.name, o.data))
        .collect();
    let mut vm_off = store(DedupConfig::with_chunk_size(shape.chunk_size));
    let sum_vm_off = run_workload(&mut vm_off, &vm_objects);
    let mut vm_on = store(DedupConfig::with_chunk_size(shape.chunk_size).compress());
    let sum_vm_on = run_workload(&mut vm_on, &vm_objects);
    assert_eq!(sum_vm_off, sum_vm_on, "VM-image read-back diverged");
    let chunk_bytes_off = vm_off.space_report().expect("space").chunk_bytes;
    let chunk_bytes_on = vm_on.space_report().expect("space").chunk_bytes;
    let savings = 1.0 - chunk_bytes_on as f64 / chunk_bytes_off.max(1) as f64;
    let report = vm_on.compression_report().expect("report");
    println!(
        "vm-image gate: chunk bytes {chunk_bytes_off} -> {chunk_bytes_on} \
         ({:.1}% saved; {} compressed / {} raw chunks, ratio {} ppm)",
        savings * 100.0,
        report.compressed_chunks,
        report.raw_chunks,
        report.ratio_ppm()
    );
    assert!(
        savings >= 0.30,
        "VM-image workload must save >=30% unique chunk bytes, got {:.1}%",
        savings * 100.0
    );

    let json = format!(
        "{{\n  \"bench\": \"compress\",\n  \"smoke\": {smoke},\n  \
         \"total_mib\": {total_mib:.0},\n  \
         \"stored_raw\": {{\"bytes_copied_off\": {copied_off}, \"bytes_copied_on\": {copied_on}, \
         \"raw_fallbacks\": {fallbacks}}},\n  \
         \"full_hash_bytes\": {{\"raw_domain\": {}, \"compressed_domain\": {}}},\n  \
         \"vm_image\": {{\"chunk_bytes_off\": {chunk_bytes_off}, \
         \"chunk_bytes_on\": {chunk_bytes_on}, \"savings\": {savings:.4}, \
         \"compressed_chunks\": {}, \"raw_chunks\": {}, \"ratio_ppm\": {}}},\n  \
         \"read_back_identical\": true\n}}\n",
        full_hash[1],
        full_hash[2],
        report.compressed_chunks,
        report.raw_chunks,
        report.ratio_ppm(),
    );
    std::fs::write(&out, json).expect("write benchmark JSON");
    println!();
    println!("results: {out}");
}
