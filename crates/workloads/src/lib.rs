//! Workload generators for the deduplication experiments.
//!
//! Each generator reproduces the *properties that matter* of a workload the
//! paper measured on real hardware (§6.1):
//!
//! * [`fio`] — FIO-style synthetic load with an exact duplicate fraction
//!   (`dedupe_percentage`), sequential or random, block-size parameterised.
//! * [`sfs`] — a SPEC SFS 2014 *database*-workload lookalike: mixed
//!   read / random-read / random-write stream at a fixed op rate per load
//!   unit, over a file set whose content redundancy grows with load.
//! * [`cloud`] — a private-cloud VM fleet (the paper's SK Telecom trace
//!   stand-in): shared OS images plus per-VM user data with controlled
//!   cross-VM redundancy.
//! * [`vm_images`] — the Fig. 13 scenario: N VM images that share nearly
//!   all OS blocks, with compressible content.
//! * [`backup`] — snapshot generations with overwrite/insertion mutations
//!   (the CDC-vs-static chunking testbed).
//! * [`zipf`] — seeded Zipf(θ) object popularity (the skewed-serving
//!   testbed).
//!
//! All generators are deterministic given a seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backup;
pub mod cloud;
pub mod content;
pub mod fio;
pub mod sfs;
pub mod vm_images;
pub mod zipf;

use serde::{Deserialize, Serialize};

/// One object of generated workload data.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GeneratedObject {
    /// Object name.
    pub name: String,
    /// Full object content.
    pub data: Vec<u8>,
}

/// A generated dataset: the logical objects a workload leaves behind.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Dataset {
    /// All generated objects.
    pub objects: Vec<GeneratedObject>,
}

impl Dataset {
    /// Total logical bytes.
    pub fn total_bytes(&self) -> u64 {
        self.objects.iter().map(|o| o.data.len() as u64).sum()
    }

    /// Number of objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Borrowing iterator of `(name, data)` pairs, as the ratio analyzers
    /// expect.
    pub fn iter_refs(&self) -> impl Iterator<Item = (&str, &[u8])> {
        self.objects
            .iter()
            .map(|o| (o.name.as_str(), o.data.as_slice()))
    }
}

impl FromIterator<GeneratedObject> for Dataset {
    fn from_iter<I: IntoIterator<Item = GeneratedObject>>(iter: I) -> Self {
        Dataset {
            objects: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_accounting() {
        let d: Dataset = [
            GeneratedObject {
                name: "a".into(),
                data: vec![0; 10],
            },
            GeneratedObject {
                name: "b".into(),
                data: vec![0; 20],
            },
        ]
        .into_iter()
        .collect();
        assert_eq!(d.total_bytes(), 30);
        assert_eq!(d.len(), 2);
        assert!(!d.is_empty());
        assert_eq!(d.iter_refs().count(), 2);
    }
}
