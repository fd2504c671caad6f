//! Collision-based population-size estimation (mark-and-recapture).
//!
//! The paper's M&R baseline adapts Katzir, Liberty and Somekh (WWW'11):
//! given nodes sampled by a simple random walk (stationary probability
//! proportional to degree), the population size is estimated from the
//! number of *collisions* — repeated appearances of the same node among
//! (near-)independent samples:
//!
//! `n̂ = (Σᵢ dᵢ) · (Σᵢ 1/dᵢ) / (2 · Ψ)`
//!
//! where `Ψ` is the number of unordered colliding sample pairs. §3.2 of
//! the paper notes that `Ω(√n)` samples are needed before the first
//! collision appears — the root cause of M&R's high query cost that
//! MA-TARW is designed to avoid, and exactly the behaviour reproduced by
//! the Figure 3/10 benchmarks.

use crate::{IdMap, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;

/// Serializable snapshot of a [`CollisionCounter`], used by walker
/// checkpoints. Floating sums are stored as raw IEEE-754 bits so a
/// round trip through JSON is bit-exact.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CollisionState {
    /// Distinct `(node, occurrences)` pairs, sorted by node id.
    pub seen: Vec<(NodeId, u64)>,
    /// Unordered colliding pairs counted so far.
    pub collisions: u64,
    /// `Σ degree`, as `f64::to_bits`.
    pub sum_degree_bits: u64,
    /// `Σ 1/degree`, as `f64::to_bits`.
    pub sum_inv_degree_bits: u64,
    /// Samples accepted so far.
    pub samples: u64,
}

/// Incremental collision counter over degree-weighted samples.
///
/// Feed it `(node, degree)` samples from a simple random walk (after
/// burn-in and thinning); read the size estimate at any point.
///
/// Occurrence counts live in `counts`, in first-seen order, and `slots`
/// maps each node to its entry, so a sample costs one hash probe. A
/// [`CollisionCounter::snapshot`] lists them by node: `order` keeps that
/// order from the previous snapshot, and the next one sorts only the
/// nodes first seen since and merges them in.
#[derive(Clone, Debug, Default)]
pub struct CollisionCounter {
    /// Each distinct node's index in `counts`.
    slots: IdMap<NodeId, usize>,
    /// `(node, occurrences)`, in first-seen order.
    counts: Vec<(NodeId, u64)>,
    /// Indices into `counts` in node order, covering `counts[..order.len()]`.
    order: Vec<usize>,
    collisions: u64,
    sum_degree: f64,
    sum_inv_degree: f64,
    samples: usize,
}

impl CollisionCounter {
    /// Creates an empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one sample. Samples with degree 0 are ignored (they cannot be
    /// reached by a walk and would break the inverse-degree sum).
    pub fn push(&mut self, node: NodeId, degree: usize) {
        if degree == 0 {
            return;
        }
        match self.slots.entry(node) {
            Entry::Occupied(slot) => {
                if let Some((_, count)) = self.counts.get_mut(*slot.get()) {
                    self.collisions += *count;
                    *count += 1;
                }
            }
            Entry::Vacant(slot) => {
                slot.insert(self.counts.len());
                self.counts.push((node, 1));
            }
        }
        self.sum_degree += degree as f64;
        self.sum_inv_degree += 1.0 / degree as f64;
        self.samples += 1;
    }

    /// Number of samples accepted so far.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Number of unordered colliding pairs observed so far.
    pub fn collisions(&self) -> u64 {
        self.collisions
    }

    /// Number of distinct nodes observed.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Snapshots the counter for a walker checkpoint. Sorts only the
    /// nodes first seen since the previous snapshot, merging them into
    /// that snapshot's node order.
    pub fn snapshot(&mut self) -> CollisionState {
        let counts = &self.counts;
        if self.order.len() < counts.len() {
            let node = |i: usize| counts.get(i).map(|&(node, _)| node);
            let mut added: Vec<usize> = (self.order.len()..counts.len()).collect();
            added.sort_unstable_by_key(|&i| node(i));
            let mut merged = Vec::with_capacity(counts.len());
            let mut old = self.order.iter().copied().peekable();
            for i in added {
                while let Some(kept) = old.next_if(|&kept| node(kept) < node(i)) {
                    merged.push(kept);
                }
                merged.push(i);
            }
            merged.extend(old);
            self.order = merged;
        }
        CollisionState {
            seen: self
                .order
                .iter()
                .filter_map(|&i| counts.get(i).copied())
                .collect(),
            collisions: self.collisions,
            sum_degree_bits: self.sum_degree.to_bits(),
            sum_inv_degree_bits: self.sum_inv_degree.to_bits(),
            samples: self.samples as u64,
        }
    }

    /// Rebuilds a counter from a [`CollisionCounter::snapshot`]; the
    /// restored counter produces bit-identical estimates.
    pub fn restore(state: &CollisionState) -> CollisionCounter {
        CollisionCounter {
            slots: state
                .seen
                .iter()
                .enumerate()
                .map(|(i, &(node, _))| (node, i))
                .collect(),
            counts: state.seen.clone(),
            order: (0..state.seen.len()).collect(),
            collisions: state.collisions,
            sum_degree: f64::from_bits(state.sum_degree_bits),
            sum_inv_degree: f64::from_bits(state.sum_inv_degree_bits),
            samples: state.samples as usize,
        }
    }

    /// The Katzir size estimate; `None` until the first collision.
    pub fn estimate(&self) -> Option<f64> {
        if self.collisions == 0 {
            return None;
        }
        Some(self.sum_degree * self.sum_inv_degree / (2.0 * self.collisions as f64))
    }
}

/// One-shot helper: size estimate from a batch of `(node, degree)` samples.
pub fn katzir_estimate(samples: impl IntoIterator<Item = (NodeId, usize)>) -> Option<f64> {
    let mut c = CollisionCounter::new();
    for (u, d) in samples {
        c.push(u, d);
    }
    c.estimate()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn no_collision_no_estimate() {
        let mut c = CollisionCounter::new();
        c.push(1, 3);
        c.push(2, 3);
        assert_eq!(c.estimate(), None);
        assert_eq!(c.collisions(), 0);
        assert_eq!(c.distinct(), 2);
    }

    #[test]
    fn collision_counting_is_pairwise() {
        let mut c = CollisionCounter::new();
        for _ in 0..4 {
            c.push(7, 2);
        }
        // C(4,2) = 6 colliding pairs.
        assert_eq!(c.collisions(), 6);
        assert_eq!(c.samples(), 4);
    }

    #[test]
    fn zero_degree_samples_ignored() {
        let mut c = CollisionCounter::new();
        c.push(1, 0);
        c.push(1, 0);
        assert_eq!(c.samples(), 0);
        assert_eq!(c.estimate(), None);
    }

    #[test]
    fn estimates_regular_population_size() {
        // Uniform sampling from a d-regular population of size 500:
        // stationary == uniform, so sampling with replacement is exact.
        let n = 500u32;
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let mut c = CollisionCounter::new();
        for _ in 0..400 {
            c.push(rng.gen_range(0..n), 8);
        }
        let est = c.estimate().expect("400 samples of 500 should collide");
        let rel = (est - n as f64).abs() / n as f64;
        assert!(rel < 0.35, "estimate {est} too far from {n}");
    }

    #[test]
    fn degree_weighted_sampling_is_corrected() {
        // Population: 300 nodes of degree 1, 100 of degree 9. Sample with
        // probability proportional to degree, as an SRW would.
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let mut c = CollisionCounter::new();
        let total_degree = 300.0 * 1.0 + 100.0 * 9.0;
        for _ in 0..600 {
            let x: f64 = rng.gen::<f64>() * total_degree;
            if x < 300.0 {
                c.push(rng.gen_range(0..300), 1);
            } else {
                c.push(300 + rng.gen_range(0..100), 9);
            }
        }
        let est = c.estimate().expect("collisions expected");
        let rel = (est - 400.0).abs() / 400.0;
        assert!(rel < 0.35, "estimate {est} too far from 400");
    }

    #[test]
    fn one_shot_helper_matches_incremental() {
        let samples = vec![(1u32, 2usize), (2, 4), (1, 2), (3, 1), (1, 2)];
        let mut c = CollisionCounter::new();
        for &(u, d) in &samples {
            c.push(u, d);
        }
        assert_eq!(katzir_estimate(samples), c.estimate());
    }
}
