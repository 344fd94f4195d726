//! The memtable: fresh writes held in plain `f32` rows and searched by
//! exact scan.
//!
//! Fresh vectors are few (bounded by the seal threshold), so a brute-force
//! scan is both the fastest and the only *unbiased-by-construction* option:
//! exact distances need no estimator, no error bound, and merge directly
//! with the segments' re-ranked exact distances.
//!
//! One type serves the writer and every reader. Rows live in fixed-size
//! chunks behind `Arc`s: full chunks are never touched again, the open
//! tail is taken with `Arc::make_mut` (so an insert copies at most that
//! one chunk, and only while a clone still shares it), and deletes are a
//! sorted id list beside the rows. A clone is three pointer copies and
//! keeps seeing exactly the rows and deletes it was taken with — the
//! memtable half of snapshot isolation, and a frozen copy a seal can be
//! built from without holding the writer.

use rabitq_ivf::TopK;
use rabitq_math::vecs;
use std::sync::Arc;

/// Row bytes per chunk: what an insert may have to copy when a snapshot
/// still shares the open tail.
const CHUNK_BYTES: usize = 16 * 1024;

/// Up to `chunk_rows` rows, id-ascending, `data` flat `len × dim`.
struct Chunk {
    ids: Vec<u32>,
    data: Vec<f32>,
}

impl Chunk {
    /// An empty chunk with room for `rows` rows.
    fn open(rows: usize, dim: usize) -> Arc<Self> {
        Arc::new(Chunk {
            ids: Vec::with_capacity(rows),
            data: Vec::with_capacity(rows * dim),
        })
    }
}

impl Clone for Chunk {
    /// Keeps the buffers' full capacity: the one clone taken is
    /// `Arc::make_mut` on the open tail, which is about to be pushed to.
    fn clone(&self) -> Self {
        let mut copy = Chunk {
            ids: Vec::with_capacity(self.ids.capacity()),
            data: Vec::with_capacity(self.data.capacity()),
        };
        copy.ids.extend_from_slice(&self.ids);
        copy.data.extend_from_slice(&self.data);
        copy
    }
}

/// In-memory buffer of `(global id, vector)` rows awaiting a seal. Cheap
/// to clone and safe to share (see module docs).
#[derive(Clone)]
pub struct Memtable {
    dim: usize,
    chunk_rows: usize,
    full: Arc<Vec<Arc<Chunk>>>,
    tail: Arc<Chunk>,
    /// Ids deleted since the last [`Memtable::clear`], ascending; their
    /// rows stay in the chunks and are skipped.
    deleted: Arc<Vec<u32>>,
}

impl Memtable {
    /// An empty memtable for `dim`-dimensional vectors.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        let chunk_rows = (CHUNK_BYTES / (dim * std::mem::size_of::<f32>())).max(1);
        Self {
            dim,
            chunk_rows,
            full: Arc::new(Vec::new()),
            tail: Chunk::open(chunk_rows, dim),
            deleted: Arc::new(Vec::new()),
        }
    }

    /// Number of live buffered vectors.
    pub fn len(&self) -> usize {
        self.full.len() * self.chunk_rows + self.tail.ids.len() - self.deleted.len()
    }

    /// Whether nothing live is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Buffers one vector under `id`, which must exceed every id inserted
    /// since the last [`Memtable::clear`] (the collection's ids only
    /// grow). Existing clones are unaffected.
    pub fn insert(&mut self, id: u32, vector: &[f32]) {
        assert_eq!(vector.len(), self.dim, "vector dimensionality");
        let last = self
            .tail
            .ids
            .last()
            .or_else(|| self.full.last()?.ids.last());
        assert!(last.is_none_or(|&last| id > last), "memtable ids ascend");
        if self.tail.ids.len() == self.chunk_rows {
            let open = Chunk::open(self.chunk_rows, self.dim);
            Arc::make_mut(&mut self.full).push(std::mem::replace(&mut self.tail, open));
        }
        let tail = Arc::make_mut(&mut self.tail);
        tail.ids.push(id);
        tail.data.extend_from_slice(vector);
    }

    /// Whether `id` is buffered here and not deleted.
    pub fn contains(&self, id: u32) -> bool {
        // Chunks are id-ascending end to end: the first full chunk whose
        // last id reaches `id` holds it, else the tail does.
        let at = self.full.partition_point(|c| c.ids.last() < Some(&id));
        let chunk = self.full.get(at).unwrap_or(&self.tail);
        chunk.ids.binary_search(&id).is_ok() && self.deleted.binary_search(&id).is_err()
    }

    /// Deletes the vector under `id` (memtable deletes need no tombstone
    /// in a segment — the row never reaches one). Returns whether it was
    /// live here. Existing clones are unaffected.
    pub fn delete(&mut self, id: u32) -> bool {
        if !self.contains(id) {
            return false;
        }
        let at = self.deleted.partition_point(|&d| d < id);
        Arc::make_mut(&mut self.deleted).insert(at, id);
        true
    }

    /// Exact-scans every live row into `top`, returning the number of exact
    /// distances computed (the memtable's contribution to `n_reranked`).
    pub fn scan_into(&self, query: &[f32], top: &mut TopK) -> usize {
        assert_eq!(query.len(), self.dim, "query dimensionality");
        let mut scanned = 0usize;
        for (id, row) in self.entries() {
            top.push(id, vecs::l2_sq(row, query));
            scanned += 1;
        }
        scanned
    }

    /// Iterates live `(id, vector)` rows in insertion order, which is id
    /// order (used by the scan, the seal and the flat rebuild). Allocates
    /// nothing: rows and deletes both ascend, so one forward walk of the
    /// delete list decides liveness.
    pub fn entries(&self) -> impl Iterator<Item = (u32, &[f32])> {
        let mut deleted = self.deleted.iter().peekable();
        self.full
            .iter()
            .chain(std::iter::once(&self.tail))
            .flat_map(|c| c.ids.iter().copied().zip(c.data.chunks_exact(self.dim)))
            .filter(move |(id, _)| deleted.next_if_eq(&id).is_none())
    }

    /// Empties the memtable (after its contents sealed into a segment).
    /// Clones keep their rows.
    pub fn clear(&mut self) {
        *self = Self::new(self.dim);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn top_ids(mt: &Memtable, query: &[f32], k: usize) -> Vec<u32> {
        let mut top = TopK::new(k);
        mt.scan_into(query, &mut top);
        top.into_sorted().into_iter().map(|(id, _)| id).collect()
    }

    fn live(mt: &Memtable) -> Vec<(u32, Vec<f32>)> {
        mt.entries().map(|(id, v)| (id, v.to_vec())).collect()
    }

    /// Rows per chunk at `dim`, so tests can cross a chunk boundary.
    fn chunk_rows(dim: usize) -> u32 {
        Memtable::new(dim).chunk_rows as u32
    }

    #[test]
    fn insert_scan_and_delete() {
        let mut mt = Memtable::new(2);
        mt.insert(10, &[0.0, 0.0]);
        mt.insert(11, &[1.0, 0.0]);
        mt.insert(12, &[5.0, 5.0]);
        assert_eq!(mt.len(), 3);

        let mut top = TopK::new(2);
        assert_eq!(mt.scan_into(&[0.1, 0.0], &mut top), 3);
        let got = top.into_sorted();
        assert_eq!(got[0].0, 10);
        assert_eq!(got[1].0, 11);

        // Delete a middle row: survivors keep their rows and their order.
        assert!(mt.delete(11));
        assert!(!mt.delete(11));
        assert!(!mt.delete(13));
        assert!(!mt.contains(11));
        assert_eq!(mt.len(), 2);
        assert_eq!(live(&mt), vec![(10, vec![0.0, 0.0]), (12, vec![5.0, 5.0])]);
        let mut top = TopK::new(5);
        assert_eq!(mt.scan_into(&[0.0, 0.0], &mut top), 2);
    }

    #[test]
    fn clones_are_isolated_from_later_mutations() {
        // Enough rows that the clone shares full chunks *and* an open
        // tail with the writer, then mutations on both sides of the
        // chunk boundary.
        let n = chunk_rows(2) + 2;
        let mut mt = Memtable::new(2);
        for id in 0..n {
            mt.insert(id, &[id as f32, 0.0]);
        }
        let frozen = mt.clone();
        mt.insert(n, &[0.1, 0.0]);
        mt.delete(0); // in a full chunk
        mt.delete(n - 1); // in the tail

        assert_eq!(frozen.len(), n as usize);
        assert!(frozen.contains(0) && frozen.contains(n - 1));
        assert!(!frozen.contains(n));
        assert_eq!(top_ids(&frozen, &[0.0, 0.0], 2), vec![0, 1]);

        assert_eq!(mt.len(), n as usize - 1);
        assert!(!mt.contains(0) && !mt.contains(n - 1));
        assert_eq!(top_ids(&mt, &[0.0, 0.0], 2), vec![n, 1]);
    }

    #[test]
    fn clear_resets_and_clones_survive() {
        let n = 2 * chunk_rows(1) + 3;
        let mut mt = Memtable::new(1);
        for id in 0..n {
            mt.insert(id, &[id as f32]);
        }
        let frozen = mt.clone();
        mt.clear();
        assert!(mt.is_empty());
        assert_eq!(mt.entries().count(), 0);
        mt.insert(n, &[0.0]); // the id space keeps growing after a seal
        assert_eq!(frozen.len(), n as usize);
        assert!(frozen.contains(42) && frozen.contains(n - 1));
        assert!(!frozen.contains(n));
    }

    proptest! {
        #[test]
        fn random_ops_match_a_btreemap_oracle(
            ops in proptest::collection::vec((0u32..16, 0u32..1000), 0..300),
        ) {
            // 4 rows per chunk, so a run crosses many chunk boundaries.
            let dim = 1024;
            let mut mt = Memtable::new(dim);
            let mut oracle: BTreeMap<u32, f32> = BTreeMap::new();
            let mut clones: Vec<(Memtable, BTreeMap<u32, f32>)> = Vec::new();
            let mut next_id = 0u32;
            for (kind, pick) in ops {
                match kind {
                    0..=9 => {
                        let value = next_id as f32 * 0.5;
                        mt.insert(next_id, &vec![value; dim]);
                        oracle.insert(next_id, value);
                        next_id += 1;
                    }
                    10..=13 => {
                        let id = pick % (next_id + 1);
                        prop_assert_eq!(mt.delete(id), oracle.remove(&id).is_some());
                    }
                    14 => clones.push((mt.clone(), oracle.clone())),
                    _ => {
                        mt.clear();
                        oracle.clear();
                    }
                }
                // The writer and every clone ever taken report their own
                // live set, id-ascending, with the right rows.
                for (table, expect) in clones.iter().map(|(t, o)| (t, o)).chain([(&mt, &oracle)]) {
                    prop_assert_eq!(table.len(), expect.len());
                    let got: Vec<(u32, f32)> = table.entries().map(|(id, v)| (id, v[dim - 1])).collect();
                    let want: Vec<(u32, f32)> = expect.iter().map(|(&id, &v)| (id, v)).collect();
                    prop_assert_eq!(got, want);
                }
                if let Some(&id) = oracle.keys().next() {
                    prop_assert!(mt.contains(id));
                }
                prop_assert!(!mt.contains(next_id));
            }
        }
    }
}
