//! The chunk index: the engine's in-memory view of "which chunks exist".
//!
//! The placement map is the authoritative index — a chunk's fingerprint
//! *is* its object name, so the chunk pool answers every existence
//! question. [`ChunkIndex`] only caches what that answer costs, on the
//! flush hot path:
//!
//! 1. **Existence gate** ([`ChunkIndex::may_contain`]) — the Bloom-filter
//!    negative-lookup fast path in front of chunk-pool existence probes.
//! 2. **Candidate sets** ([`ChunkIndex::candidates`], tiered fingerprint
//!    pipeline only) — given a cheap [`ChunkSig`] (length class +
//!    sparse-sample hash), which stored chunks *could* be content-equal?
//!    An **empty answer proves global uniqueness**: every chunk creation
//!    registers its signature via [`ChunkIndex::note_stored`] before the
//!    chunk becomes visible, and equal content always yields an equal
//!    signature, so a signature miss means no stored chunk can match.
//!    That proof is what lets the tiered fingerprint pipeline skip the
//!    full hash for unique chunks entirely.
//!
//! Both are rebuilt from the chunk pool by
//! [`crate::DedupStore::rebuild_index`] at recovery.
//!
//! Deletions are lazy, matching the Bloom filter's semantics: nothing is
//! eagerly removed when a chunk dies; a stale candidate is detected when
//! its upgrade read misses and is then dropped via
//! [`ChunkIndex::drop_candidate`]. Stale candidates cost a wasted probe,
//! never a wrong answer — chunk names are never reused for different
//! content.

use std::collections::HashMap;

use dedup_fingerprint::{ChunkSig, Fingerprint};
use parking_lot::Mutex;

use crate::bloom::{BloomConfig, BloomFilter};

/// One stored chunk that a signature probe surfaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CandidateRef {
    /// The chunk-pool name the chunk is stored under (a content hash, or
    /// a weak minted name).
    pub stored: Fingerprint,
    /// The chunk's full content fingerprint, when known. `None` for a
    /// weak-named chunk that has not been upgraded yet; the flush path
    /// reads the chunk back, hashes it, and memoizes the result here via
    /// [`ChunkIndex::memoize_full`] (at most once per stored chunk).
    pub full: Option<Fingerprint>,
}

/// Estimated bytes one candidate costs inside the `HashMap`-of-`Vec`s
/// candidate map: the 44-byte `CandidateRef` plus map/vec bookkeeping.
const CANDIDATE_BYTES: u64 = 112;
/// Estimated per-signature entry overhead in the candidate map.
const ENTRY_BYTES: u64 = 48;

/// The engine's chunk-lookup state: Bloom gate plus signature → candidate
/// map. All methods take `&self`: the Bloom gate is lock-free atomics and
/// the candidate map sits behind a mutex, because the foreground store
/// path holds only a shard lock.
#[derive(Debug)]
pub struct ChunkIndex {
    bloom: BloomFilter,
    candidates: Mutex<HashMap<ChunkSig, Vec<CandidateRef>>>,
}

impl ChunkIndex {
    /// Builds an empty index with the given Bloom sizing.
    pub fn new(bloom: BloomConfig) -> Self {
        ChunkIndex {
            bloom: BloomFilter::with_config(bloom),
            candidates: Mutex::new(HashMap::new()),
        }
    }

    /// Bloom gate: `false` proves the fingerprint was never stored.
    pub fn may_contain(&self, fp: &Fingerprint) -> bool {
        self.bloom.may_contain(fp)
    }

    /// Registers a chunk at creation, *before* it becomes visible in the
    /// chunk pool (the no-false-negative discipline). `sig` is `None`
    /// when the tiered pipeline is off — only the Bloom gate is fed.
    pub fn note_stored(&self, stored: Fingerprint, sig: Option<ChunkSig>) {
        self.bloom.insert(&stored);
        let Some(sig) = sig else { return };
        let mut map = self.candidates.lock();
        let cands = map.entry(sig).or_default();
        if cands.iter().any(|c| c.stored == stored) {
            return;
        }
        // A chunk stored under its content hash *is* its own full
        // fingerprint; only weak-named chunks need a later upgrade.
        let full = (!stored.is_weak()).then_some(stored);
        cands.push(CandidateRef { stored, full });
    }

    /// All stored chunks whose signature equals `sig`. An empty result
    /// proves no stored chunk has content with this signature — the
    /// caller's chunk is globally unique.
    pub fn candidates(&self, sig: &ChunkSig) -> Vec<CandidateRef> {
        self.candidates.lock().get(sig).cloned().unwrap_or_default()
    }

    /// Records the full content fingerprint learned for a stored chunk
    /// (an upgrade read), so later collisions on `sig` resolve without
    /// re-reading it.
    pub fn memoize_full(&self, sig: &ChunkSig, stored: Fingerprint, full: Fingerprint) {
        if let Some(cands) = self.candidates.lock().get_mut(sig) {
            for c in cands.iter_mut().filter(|c| c.stored == stored) {
                c.full = Some(full);
            }
        }
    }

    /// Drops a candidate discovered stale (its chunk object no longer
    /// exists). Lazy-deletion cleanup, not a correctness requirement.
    pub fn drop_candidate(&self, sig: &ChunkSig, stored: Fingerprint) {
        let mut map = self.candidates.lock();
        if let Some(cands) = map.get_mut(sig) {
            cands.retain(|c| c.stored != stored);
            if cands.is_empty() {
                map.remove(sig);
            }
        }
    }

    /// Empties the index (recovery rebuilds it from the chunk pool).
    pub fn clear(&self) {
        self.bloom.clear();
        self.candidates.lock().clear();
    }

    /// Estimated resident memory, in bytes: the Bloom bit array plus the
    /// candidate map.
    pub fn resident_bytes(&self) -> u64 {
        let map = self.candidates.lock();
        let cands: u64 = map.values().map(|v| v.len() as u64).sum();
        self.bloom.resident_bytes() + map.len() as u64 * ENTRY_BYTES + cands * CANDIDATE_BYTES
    }

    /// Fill ratio of the Bloom gate, in `[0, 1]`.
    pub fn bloom_fill_ratio(&self) -> f64 {
        self.bloom.fill_ratio()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(n: u64) -> ChunkSig {
        ChunkSig {
            sample: n.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            len: 4096,
        }
    }

    fn fp(n: u64) -> Fingerprint {
        Fingerprint::of(&n.to_le_bytes())
    }

    fn index() -> ChunkIndex {
        ChunkIndex::new(BloomConfig {
            bits: 1 << 12,
            probes: 4,
        })
    }

    #[test]
    fn empty_sig_probe_proves_uniqueness() {
        let idx = index();
        assert!(idx.candidates(&sig(1)).is_empty());
        idx.note_stored(fp(1), Some(sig(1)));
        assert!(!idx.candidates(&sig(1)).is_empty());
        assert!(idx.candidates(&sig(2)).is_empty());
    }

    #[test]
    fn full_known_for_content_named_candidates() {
        let idx = index();
        idx.note_stored(fp(9), Some(sig(9)));
        let c = idx.candidates(&sig(9));
        assert_eq!(
            c,
            vec![CandidateRef {
                stored: fp(9),
                full: Some(fp(9))
            }]
        );
        let weak = Fingerprint::mint_weak(&sig(10), 0);
        idx.note_stored(weak, Some(sig(10)));
        let c = idx.candidates(&sig(10));
        assert_eq!(
            c,
            vec![CandidateRef {
                stored: weak,
                full: None
            }]
        );
    }

    #[test]
    fn memoize_and_drop_touch_only_their_candidate() {
        let idx = index();
        let weak = Fingerprint::mint_weak(&sig(3), 0);
        idx.note_stored(weak, Some(sig(3)));
        idx.note_stored(fp(3), Some(sig(3)));
        idx.note_stored(weak, Some(sig(3)));
        assert_eq!(idx.candidates(&sig(3)).len(), 2, "re-store is idempotent");
        idx.memoize_full(&sig(3), weak, fp(30));
        let full_of = |stored| {
            idx.candidates(&sig(3))
                .into_iter()
                .find(|c| c.stored == stored)
                .and_then(|c| c.full)
        };
        assert_eq!(full_of(weak), Some(fp(30)));
        assert_eq!(full_of(fp(3)), Some(fp(3)));
        idx.drop_candidate(&sig(3), weak);
        assert_eq!(idx.candidates(&sig(3)).len(), 1);
        idx.drop_candidate(&sig(3), fp(3));
        assert!(idx.candidates(&sig(3)).is_empty());
        // The Bloom gate is never cleared by a drop: lazy deletion.
        assert!(idx.may_contain(&weak));
    }

    #[test]
    fn clear_resets_everything() {
        let idx = index();
        let empty = idx.resident_bytes();
        for n in 0..32 {
            idx.note_stored(fp(n), Some(sig(n)));
        }
        assert!(idx.resident_bytes() > empty);
        idx.clear();
        assert_eq!(idx.resident_bytes(), empty);
        assert_eq!(idx.bloom_fill_ratio(), 0.0);
        assert!(!idx.may_contain(&fp(0)));
        assert!(idx.candidates(&sig(0)).is_empty());
    }
}
