//! Store-level conformance suite for the tiered fingerprint pipeline.
//!
//! Runs the same random write / delete / flush / GC / restart workload
//! against a classic engine and a tiered-pipeline engine, and asserts
//! reads, space accounting, reference integrity and leak-freedom agree —
//! the tiered pipeline is a pure work-avoidance optimisation, invisible in
//! what is stored. Restarts (`recover_after_crash` on the live store)
//! exercise `rebuild_index` re-signing every surviving chunk and resuming
//! the weak-name sequence after GC has reclaimed candidates.

use proptest::collection::vec;
use proptest::prelude::*;

use dedup_core::{DedupConfig, DedupStore};
use dedup_sim::SimTime;
use dedup_store::{ClientId, ClusterBuilder, ObjectName};

// ---------------------------------------------------------------------
// Store-level equivalence
// ---------------------------------------------------------------------

/// One engine-level operation over a small object namespace.
#[derive(Debug, Clone, Copy)]
enum StoreOp {
    /// Write `chunks` chunk-sized pieces of patterned content at a
    /// chunk-aligned offset. Small `seed` space forces duplicates.
    Write {
        obj: u8,
        chunk_off: u8,
        seed: u8,
    },
    Delete {
        obj: u8,
    },
    Flush,
    Gc,
    /// Engine restart: dirty-queue rebuild, index re-seed, flush, GC.
    Recover,
}

fn arb_store_op() -> impl Strategy<Value = StoreOp> {
    prop_oneof![
        6 => (0u8..3, 0u8..4, 0u8..6)
            .prop_map(|(obj, chunk_off, seed)| StoreOp::Write { obj, chunk_off, seed }),
        1 => (0u8..3).prop_map(|obj| StoreOp::Delete { obj }),
        3 => Just(StoreOp::Flush),
        1 => Just(StoreOp::Gc),
        1 => Just(StoreOp::Recover),
    ]
}

const CS: u32 = 4 * 1024;

fn store_with(config: DedupConfig) -> DedupStore {
    let cluster = ClusterBuilder::new().nodes(4).osds_per_node(2).build();
    DedupStore::with_default_pools(cluster, config)
}

fn patterned(seed: u8) -> Vec<u8> {
    (0..CS as usize)
        .map(|i| seed.wrapping_mul(31).wrapping_add((i % 251) as u8))
        .collect()
}

fn apply(s: &mut DedupStore, op: StoreOp, now: SimTime) {
    match op {
        StoreOp::Write {
            obj,
            chunk_off,
            seed,
        } => {
            let name = ObjectName::new(format!("o{obj}"));
            let _ = s
                .write(
                    ClientId(0),
                    &name,
                    chunk_off as u64 * CS as u64,
                    patterned(seed),
                    now,
                )
                .expect("write");
        }
        StoreOp::Delete { obj } => {
            let name = ObjectName::new(format!("o{obj}"));
            let _ = s.delete(ClientId(0), &name);
        }
        StoreOp::Flush => {
            let _ = s.flush_all(now).expect("flush");
        }
        StoreOp::Gc => {
            let _ = s.gc_chunk_pool().expect("gc");
        }
        StoreOp::Recover => {
            let _ = s.recover_after_crash(now).expect("recover");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tiered fingerprint pipeline stores *exactly* the same logical
    /// data and achieves *exactly* the same dedup outcome as the classic
    /// engine, across restarts: same readable contents, same
    /// logical/chunk/cached byte accounting, same chunk-object count,
    /// clean references and no leaked chunks in both.
    #[test]
    fn tiered_engine_matches_flat_engine(ops in vec(arb_store_op(), 1..24)) {
        let mut classic = store_with(DedupConfig::with_chunk_size(CS));
        let mut tiered = store_with(DedupConfig::with_chunk_size(CS).tiered_fingerprint());
        for (i, &op) in ops.iter().enumerate() {
            let now = SimTime::from_secs((i as u64 + 1) * 10);
            apply(&mut classic, op, now);
            apply(&mut tiered, op, now);
        }
        let end = SimTime::from_secs(10_000);
        let _ = classic.flush_all(end).expect("classic flush");
        let _ = tiered.flush_all(end).expect("tiered flush");

        // Same readable bytes everywhere.
        for obj in 0u8..3 {
            let name = ObjectName::new(format!("o{obj}"));
            let len_c = classic.stat_len(&name).expect("stat");
            let len_t = tiered.stat_len(&name).expect("stat");
            prop_assert_eq!(len_c, len_t, "length diverged for o{}", obj);
            if let Some(len) = len_c {
                if len > 0 {
                    let rc = classic.read(ClientId(0), &name, 0, len, end).expect("read");
                    let rt = tiered.read(ClientId(0), &name, 0, len, end).expect("read");
                    prop_assert_eq!(&rc.value[..], &rt.value[..], "contents diverged");
                }
            }
        }

        // Same dedup outcome: identical logical bytes, identical unique
        // chunk bytes and object counts (weak naming changes *names*,
        // never *what* is stored), identical cached footprint.
        let sc = classic.space_report().expect("space");
        let st = tiered.space_report().expect("space");
        prop_assert_eq!(sc.logical_bytes, st.logical_bytes);
        prop_assert_eq!(sc.chunk_bytes, st.chunk_bytes);
        prop_assert_eq!(sc.chunk_objects, st.chunk_objects);
        prop_assert_eq!(sc.cached_bytes, st.cached_bytes);
        prop_assert_eq!(sc.metadata_objects, st.metadata_objects);

        // Both reference graphs are intact, and nothing leaked.
        prop_assert!(classic.verify_references().expect("verify").is_empty());
        prop_assert!(tiered.verify_references().expect("verify").is_empty());
        prop_assert!(classic.find_leaked_chunks().expect("leaks").is_empty());
        prop_assert!(tiered.find_leaked_chunks().expect("leaks").is_empty());
    }
}
