//! End-to-end integration: workloads through the full stack
//! (chunking → fingerprints → placement → pools → engine) with capacity
//! verification.

use global_dedup::core::{global_ratio, CachePolicy, DedupConfig, DedupStore};
use global_dedup::sim::SimTime;
use global_dedup::store::{ClientId, ClusterBuilder, ObjectName, PoolConfig};
use global_dedup::workloads::cloud::CloudSpec;
use global_dedup::workloads::fio::FioSpec;
use global_dedup::workloads::vm_images::VmImageSpec;

fn load_and_flush(store: &mut DedupStore, dataset: &global_dedup::workloads::Dataset) {
    for obj in &dataset.objects {
        let _ = store
            .write(
                ClientId(0),
                &ObjectName::new(&*obj.name),
                0,
                &obj.data,
                SimTime::ZERO,
            )
            .expect("write");
    }
    let _ = store.flush_all(SimTime::from_secs(1_000)).expect("flush");
}

fn verify_all(store: &mut DedupStore, dataset: &global_dedup::workloads::Dataset) {
    for obj in &dataset.objects {
        let r = store
            .read(
                ClientId(1),
                &ObjectName::new(&*obj.name),
                0,
                obj.data.len() as u64,
                SimTime::from_secs(2_000),
            )
            .expect("read");
        assert_eq!(r.value, obj.data, "object {}", obj.name);
    }
}

/// The fingerprint worker pool changes only wall-clock: a serial and a
/// four-worker flush of the same unique-plus-duplicate writes must commit
/// the same chunks and report the same outcome.
#[test]
fn flush_parallelism_does_not_change_outcomes() {
    let dataset = FioSpec::new(4 << 20, 0.5).object_size(256 * 1024).dataset();
    let flushed = |workers: usize| {
        let mut store = DedupStore::with_default_pools(
            ClusterBuilder::new().build(),
            DedupConfig::with_chunk_size(32 * 1024)
                .cache_policy(CachePolicy::EvictAll)
                .flush_parallelism(workers)
                .flush_batch_size(16),
        );
        for obj in &dataset.objects {
            let name = ObjectName::new(&*obj.name);
            let _ = store
                .write(ClientId(0), &name, 0, &obj.data, SimTime::ZERO)
                .expect("write");
        }
        let report = store
            .flush_all(SimTime::from_secs(1_000))
            .expect("flush")
            .value;
        verify_all(&mut store, &dataset);
        let mut chunks = store
            .cluster()
            .list_objects(store.chunk_pool())
            .expect("list chunk pool");
        chunks.sort();
        (report, store.space_report().expect("report"), chunks)
    };
    let (serial, parallel) = (flushed(1), flushed(4));
    assert!(
        serial.0.chunks_created > 0 && serial.0.chunks_deduped > 0,
        "workload mixes unique and duplicate chunks: {:?}",
        serial.0
    );
    assert_eq!(serial.0, parallel.0, "flush reports");
    assert_eq!(serial.1, parallel.1, "space reports");
    assert_eq!(serial.2, parallel.2, "chunk-pool objects");
}

#[test]
fn fio_dataset_round_trips_and_dedups() {
    let dataset = FioSpec::new(8 << 20, 0.5).dataset();
    let cluster = ClusterBuilder::new().build();
    let mut store = DedupStore::with_default_pools(
        cluster,
        DedupConfig::with_chunk_size(32 * 1024).cache_policy(CachePolicy::EvictAll),
    );
    load_and_flush(&mut store, &dataset);
    verify_all(&mut store, &dataset);
    // The engine's measured ratio must match the analytical ratio of the
    // dataset itself.
    let analytical = global_ratio(dataset.iter_refs(), 32 * 1024).ratio_percent();
    let measured = store.space_report().expect("report").ideal_ratio_percent();
    assert!(
        (analytical - measured).abs() < 2.0,
        "engine {measured}% vs analytical {analytical}%"
    );
}

#[test]
fn cloud_dataset_on_erasure_coded_chunk_pool() {
    let dataset = CloudSpec::default().scaled(0.25).dataset();
    let cluster = ClusterBuilder::new().build();
    let mut store = DedupStore::new(
        cluster,
        PoolConfig::replicated("metadata", 2),
        PoolConfig::erasure("chunks", 2, 1),
        DedupConfig::with_chunk_size(32 * 1024).cache_policy(CachePolicy::EvictAll),
    );
    load_and_flush(&mut store, &dataset);
    verify_all(&mut store, &dataset);
    // EC chunk pool: raw chunk bytes cost 1.5x, not 2x.
    let usage = store.cluster().usage(store.chunk_pool()).expect("usage");
    let factor = usage.stored_bytes as f64 / usage.logical_bytes.max(1) as f64;
    assert!(
        (factor - 1.5).abs() < 0.01,
        "EC 2+1 raw factor should be 1.5, got {factor}"
    );
}

#[test]
fn vm_images_with_compression_save_capacity_multiplicatively() {
    let spec = VmImageSpec {
        images: 4,
        image_bytes: 2 << 20,
        ..Default::default()
    };
    let build = |compress: bool| {
        let cluster = ClusterBuilder::new().build();
        let meta = PoolConfig::replicated("metadata", 2);
        let chunk = if compress {
            PoolConfig::replicated("chunks", 2).with_compression()
        } else {
            PoolConfig::replicated("chunks", 2)
        };
        DedupStore::new(
            cluster,
            meta,
            chunk,
            DedupConfig::with_chunk_size(32 * 1024).cache_policy(CachePolicy::EvictAll),
        )
    };
    let mut plain = build(false);
    let mut compressed = build(true);
    for store in [&mut plain, &mut compressed] {
        for i in 0..spec.images {
            let img = spec.image(i);
            let _ = store
                .write(
                    ClientId(0),
                    &ObjectName::new(&*img.name),
                    0,
                    &img.data,
                    SimTime::ZERO,
                )
                .expect("write");
        }
        let _ = store.flush_all(SimTime::from_secs(100)).expect("flush");
    }
    let plain_raw = plain.space_report().expect("r").raw_bytes;
    let comp_raw = compressed.space_report().expect("r").raw_bytes;
    assert!(
        comp_raw * 3 < plain_raw * 2,
        "compression on top of dedup should save >1/3: {plain_raw} -> {comp_raw}"
    );
    // Reads still exact through decompression-free path (store keeps raw).
    let img = spec.image(2);
    let r = compressed
        .read(
            ClientId(0),
            &ObjectName::new(&*img.name),
            0,
            img.data.len() as u64,
            SimTime::from_secs(200),
        )
        .expect("read");
    assert_eq!(r.value, img.data);
}

#[test]
fn sixteen_kib_chunks_pay_more_metadata_than_sixty_four() {
    let dataset = CloudSpec::default().scaled(0.25).dataset();
    let mut metadata = Vec::new();
    for chunk_kib in [16u32, 64] {
        let cluster = ClusterBuilder::new().build();
        let mut store = DedupStore::with_default_pools(
            cluster,
            DedupConfig::with_chunk_size(chunk_kib * 1024).cache_policy(CachePolicy::EvictAll),
        );
        load_and_flush(&mut store, &dataset);
        let r = store.space_report().expect("report");
        metadata.push(r.metadata_bytes + r.object_overhead_bytes);
    }
    assert!(
        metadata[0] > metadata[1] * 3,
        "16 KiB metadata {} should be ~4x of 64 KiB {}",
        metadata[0],
        metadata[1]
    );
}

#[test]
fn engine_counters_are_consistent() {
    let dataset = FioSpec::new(2 << 20, 0.8).dataset();
    let cluster = ClusterBuilder::new().build();
    let mut store = DedupStore::with_default_pools(
        cluster,
        DedupConfig::with_chunk_size(32 * 1024).cache_policy(CachePolicy::EvictAll),
    );
    load_and_flush(&mut store, &dataset);
    let flushed = store
        .flush_all(SimTime::from_secs(2_000))
        .expect("idempotent");
    assert_eq!(flushed.value.chunks_flushed, 0, "nothing left dirty");
    let stats = store.stats();
    assert_eq!(stats.writes as usize, dataset.len());
    assert_eq!(stats.bytes_written, dataset.total_bytes());
    assert_eq!(store.dirty_len(), 0);
}
