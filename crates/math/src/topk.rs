//! The bounded top-K heap: keep the K smallest `(id, distance)` pairs.
//!
//! Every exact answer in the workspace comes out of this one type: the
//! IVF scan and its Section 4 re-rank, the collection merge, the exact
//! ground truth, and the HNSW beam of both graph indexes.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A `(distance, id)` pair ordered by distance under `f32::total_cmp`,
/// ties broken by id. [`TopK`] keeps them in a max-heap (worst on top);
/// wrapped in [`std::cmp::Reverse`] they make a nearest-first frontier.
#[derive(PartialEq)]
pub struct HeapEntry(pub f32, pub u32);

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0
            .total_cmp(&other.0)
            .then_with(|| self.1.cmp(&other.1))
    }
}

/// A bounded max-heap tracking the K smallest distances seen so far.
///
/// Tie rule: once K entries are held, a push is kept only if its distance
/// is strictly below the current K-th best. On a tie at the boundary the
/// earlier push is kept, so pushing ids in ascending order yields the
/// `(distance, id)`-sorted prefix.
pub struct TopK {
    k: usize,
    heap: BinaryHeap<HeapEntry>,
}

impl TopK {
    /// Creates a tracker for the `k` smallest entries.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            heap: BinaryHeap::with_capacity(k + 1),
        }
    }

    /// The bound `K`.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Current K-th best distance (∞ while fewer than K entries).
    #[inline]
    pub fn threshold(&self) -> f32 {
        if self.heap.len() < self.k {
            f32::INFINITY
        } else {
            self.heap.peek().map_or(f32::INFINITY, |e| e.0)
        }
    }

    /// Offers a candidate; keeps it only if it beats the threshold.
    #[inline]
    pub fn push(&mut self, id: u32, dist: f32) {
        if self.heap.len() < self.k {
            self.heap.push(HeapEntry(dist, id));
        } else if let Some(top) = self.heap.peek() {
            if dist < top.0 {
                self.heap.pop();
                self.heap.push(HeapEntry(dist, id));
            }
        }
    }

    /// Number of entries currently held.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no entries are held.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Extracts the entries, ascending by distance.
    pub fn into_sorted(self) -> Vec<(u32, f32)> {
        let mut out: Vec<(u32, f32)> = self
            .heap
            .into_iter()
            .map(|HeapEntry(d, id)| (id, d))
            .collect();
        out.sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// Re-arms the tracker for a new query with bound `k`, keeping the
    /// heap's storage. After the first query at a given `k` this performs
    /// no heap allocation.
    pub fn reset(&mut self, k: usize) {
        self.k = k;
        self.heap.clear();
        self.heap.reserve(k + 1);
    }

    /// [`TopK::into_sorted`] into a reused output buffer, leaving the
    /// tracker empty but with its storage intact (ready for
    /// [`TopK::reset`]). Ordering is identical to `into_sorted`:
    /// ascending by distance, ties by id.
    pub fn drain_sorted_into(&mut self, out: &mut Vec<(u32, f32)>) {
        out.clear();
        let mut entries = std::mem::take(&mut self.heap).into_vec();
        entries.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        out.extend(entries.iter().map(|&HeapEntry(d, id)| (id, d)));
        // Hand the (now cleared) storage back to the heap: `from` on an
        // empty vec is a free heapify, so the allocation survives.
        entries.clear();
        self.heap = BinaryHeap::from(entries);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topk_keeps_the_k_smallest() {
        let mut t = TopK::new(3);
        for (id, d) in [(0u32, 5.0f32), (1, 1.0), (2, 4.0), (3, 2.0), (4, 3.0)] {
            t.push(id, d);
        }
        let got = t.into_sorted();
        assert_eq!(got, vec![(1, 1.0), (3, 2.0), (4, 3.0)]);
    }

    #[test]
    fn threshold_is_infinite_until_full() {
        let mut t = TopK::new(2);
        assert_eq!(t.threshold(), f32::INFINITY);
        t.push(0, 1.0);
        assert_eq!(t.threshold(), f32::INFINITY);
        t.push(1, 2.0);
        assert_eq!(t.threshold(), 2.0);
        t.push(2, 0.5);
        assert_eq!(t.threshold(), 1.0);
    }

    #[test]
    fn duplicate_distances_are_kept_deterministically() {
        let mut t = TopK::new(2);
        t.push(7, 1.0);
        t.push(3, 1.0);
        t.push(9, 1.0);
        let got = t.into_sorted();
        assert_eq!(got.len(), 2);
        assert!(got.iter().all(|&(_, d)| d == 1.0));
    }

    #[test]
    fn ascending_ids_with_repeated_distances_give_the_sorted_prefix() {
        // Ids arrive in ascending order and distances repeat, so a tie at
        // the boundary must keep the earlier (smaller) id.
        let dists = [3.0f32, 1.0, 2.0, 1.0, 3.0, 2.0, 1.0, 2.0, 3.0, 1.0];
        for k in 1..=dists.len() {
            let mut t = TopK::new(k);
            for (id, &d) in dists.iter().enumerate() {
                t.push(id as u32, d);
            }
            let mut want: Vec<(u32, f32)> = (0u32..).zip(dists).collect();
            want.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
            want.truncate(k);
            assert_eq!(t.into_sorted(), want, "k = {k}");
        }
    }

    #[test]
    fn drain_matches_into_sorted_and_reuses_storage() {
        let entries = [(0u32, 5.0f32), (1, 1.0), (2, 4.0), (3, 2.0), (4, 3.0)];
        let mut a = TopK::new(3);
        let mut b = TopK::new(3);
        for &(id, d) in &entries {
            a.push(id, d);
            b.push(id, d);
        }
        let want = a.into_sorted();
        let mut got = Vec::new();
        b.drain_sorted_into(&mut got);
        assert_eq!(got, want);
        // Reset re-arms the same tracker for a fresh query.
        b.reset(2);
        assert_eq!(b.threshold(), f32::INFINITY);
        b.push(9, 0.5);
        b.push(8, 0.25);
        b.drain_sorted_into(&mut got);
        assert_eq!(got, vec![(8, 0.25), (9, 0.5)]);
    }
}
