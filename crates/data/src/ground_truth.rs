//! Exact K-nearest-neighbor ground truth via threaded brute force.
//!
//! Recall and average-distance-ratio metrics (Section 5.1) need the true
//! top-K per query. A bounded [`TopK`] heap per query keeps the scan
//! O(N·D + N·log K); queries are fanned out over the shared worker pool.

use rabitq_math::topk::TopK;
use rabitq_math::{pool, vecs};

/// The exact top-K of one query: `(index, squared distance)` ascending.
pub type Neighbors = Vec<(u32, f32)>;

/// Computes the exact `k` nearest base vectors for every query.
///
/// `data` is flat `n × dim`, `queries` flat `nq × dim`. Returns one sorted
/// neighbor list per query, using up to `threads` threads of the shared
/// [`pool`] (`1` disables threading).
pub fn exact_knn(
    data: &[f32],
    dim: usize,
    queries: &[f32],
    k: usize,
    threads: usize,
) -> Vec<Neighbors> {
    assert!(dim > 0, "dim must be positive");
    assert!(data.len().is_multiple_of(dim), "data shape");
    assert!(queries.len().is_multiple_of(dim), "queries shape");
    pool::map(queries.len() / dim, threads, |qi| {
        knn_single(data, dim, &queries[qi * dim..(qi + 1) * dim], k)
    })
}

/// Exact top-K for a single query.
pub fn knn_single(data: &[f32], dim: usize, query: &[f32], k: usize) -> Neighbors {
    let n = data.len() / dim;
    let mut top = TopK::new(k.min(n));
    for (i, row) in data.chunks_exact(dim).enumerate() {
        top.push(i as u32, vecs::l2_sq(row, query));
    }
    top.into_sorted()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rabitq_math::rng::standard_normal_vec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn finds_the_planted_nearest_neighbor() {
        let dim = 8;
        let mut rng = StdRng::seed_from_u64(1);
        let mut data = standard_normal_vec(&mut rng, 100 * dim);
        let query = standard_normal_vec(&mut rng, dim);
        // Plant an almost-identical vector at index 42.
        for d in 0..dim {
            data[42 * dim + d] = query[d] + 1e-4;
        }
        let gt = exact_knn(&data, dim, &query, 5, 1);
        assert_eq!(gt[0][0].0, 42);
    }

    #[test]
    fn results_are_sorted_and_exactly_k() {
        let dim = 4;
        let mut rng = StdRng::seed_from_u64(2);
        let data = standard_normal_vec(&mut rng, 50 * dim);
        let queries = standard_normal_vec(&mut rng, 3 * dim);
        let gt = exact_knn(&data, dim, &queries, 10, 1);
        assert_eq!(gt.len(), 3);
        for nbrs in &gt {
            assert_eq!(nbrs.len(), 10);
            assert!(nbrs.windows(2).all(|w| w[0].1 <= w[1].1));
        }
    }

    #[test]
    fn matches_full_sort_reference() {
        let dim = 6;
        let mut rng = StdRng::seed_from_u64(3);
        let data = standard_normal_vec(&mut rng, 80 * dim);
        let query = standard_normal_vec(&mut rng, dim);
        let fast = knn_single(&data, dim, &query, 7);
        let mut all: Vec<(u32, f32)> = data
            .chunks_exact(dim)
            .enumerate()
            .map(|(i, row)| (i as u32, vecs::l2_sq(row, &query)))
            .collect();
        all.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        all.truncate(7);
        assert_eq!(fast, all);
    }

    #[test]
    fn duplicated_rows_return_the_smallest_ids() {
        // Five distinct rows stored three times each (row i at ids i, i + 5
        // and i + 10): every distance ties three ways, and each `k` cuts
        // some tie group at the boundary.
        let dim = 4;
        let mut rng = StdRng::seed_from_u64(5);
        let base = standard_normal_vec(&mut rng, 5 * dim);
        let data = [base.as_slice(), &base, &base].concat();
        let query = standard_normal_vec(&mut rng, dim);
        let mut all: Vec<(u32, f32)> = data
            .chunks_exact(dim)
            .enumerate()
            .map(|(i, row)| (i as u32, vecs::l2_sq(row, &query)))
            .collect();
        all.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        for k in 1..=all.len() {
            let got = exact_knn(&data, dim, &query, k, 1);
            assert_eq!(got[0], all[..k], "k = {k}");
        }
    }

    #[test]
    fn threaded_matches_single_threaded() {
        let dim = 5;
        let mut rng = StdRng::seed_from_u64(4);
        let data = standard_normal_vec(&mut rng, 60 * dim);
        let queries = standard_normal_vec(&mut rng, 8 * dim);
        let single = exact_knn(&data, dim, &queries, 4, 1);
        let multi = exact_knn(&data, dim, &queries, 4, 4);
        assert_eq!(single, multi);
    }

    #[test]
    fn k_larger_than_n_is_clamped() {
        let dim = 3;
        let data = vec![0.0f32; 4 * dim];
        let query = vec![1.0f32; dim];
        let gt = knn_single(&data, dim, &query, 100);
        assert_eq!(gt.len(), 4);
    }

    #[test]
    fn empty_queries_yield_empty_result() {
        let data = vec![0.0f32; 12];
        let gt = exact_knn(&data, 3, &[], 2, 2);
        assert!(gt.is_empty());
    }
}
