//! Bitwise inner-product kernel for a *single* quantization code
//! (Section 3.3.2, Eq. 21–22).
//!
//! `⟨x̄_b, q̄_u⟩` decomposes over the bits of the query entries:
//! `Σ_j 2^j · ⟨x̄_b, q̄_u^{(j)}⟩`, and each binary–binary inner product is an
//! AND followed by a popcount. This is the "implementation (single)" column
//! of Table 1 — the paper measures it ~3× faster than PQ's in-RAM LUT scan
//! at equal accuracy.

use crate::query::QuantizedQuery;

/// AND + popcount over two equal-length word slices.
#[inline]
fn and_popcount(a: &[u64], b: &[u64]) -> u32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| (x & y).count_ones())
        .sum()
}

/// `⟨x̄_b, q̄_u⟩` via `B_q` AND+popcount passes over the query bit-planes.
#[inline]
pub fn ip_code_query(code_bits: &[u64], query: &QuantizedQuery) -> u32 {
    let mut acc = 0u32;
    for j in 0..query.bq() as usize {
        acc += and_popcount(code_bits, query.bitplane(j)) << j;
    }
    acc
}

/// Reference implementation: the sum of quantized query entries at
/// positions where the code bit is set. Used by tests and never on a hot
/// path.
pub fn ip_code_query_naive(code_bits: &[u64], query: &QuantizedQuery) -> u32 {
    let mut acc = 0u32;
    for (d, &v) in query.qu().iter().enumerate() {
        if (code_bits[d / 64] >> (d % 64)) & 1 == 1 {
            acc += v as u32;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_code(words: usize, rng: &mut StdRng) -> Vec<u64> {
        (0..words).map(|_| rng.gen()).collect()
    }

    fn random_query(padded_dim: usize, bq: u8, seed: u64) -> QuantizedQuery {
        let mut rng = StdRng::seed_from_u64(seed);
        let residual = rabitq_math::rng::standard_normal_vec(&mut rng, padded_dim);
        QuantizedQuery::from_rotated_residual(&residual, bq, &mut rng)
    }

    #[test]
    fn and_popcount_counts_shared_bits() {
        assert_eq!(and_popcount(&[0b1010], &[0b0110]), 1);
        assert_eq!(and_popcount(&[u64::MAX, 0], &[u64::MAX, u64::MAX]), 64);
        assert_eq!(and_popcount(&[0], &[u64::MAX]), 0);
    }

    #[test]
    fn bitwise_kernel_matches_naive_for_all_bq() {
        let mut rng = StdRng::seed_from_u64(99);
        for bq in 1..=8u8 {
            for &dim in &[64usize, 128, 448] {
                let query = random_query(dim, bq, 7 + bq as u64);
                let code = random_code(dim / 64, &mut rng);
                assert_eq!(
                    ip_code_query(&code, &query),
                    ip_code_query_naive(&code, &query),
                    "bq={bq} dim={dim}"
                );
            }
        }
    }

    #[test]
    fn all_ones_code_sums_every_entry() {
        let query = random_query(128, 4, 3);
        let code = vec![u64::MAX; 2];
        assert_eq!(ip_code_query(&code, &query), query.sum_qu);
    }

    #[test]
    fn zero_code_yields_zero() {
        let query = random_query(128, 4, 4);
        let code = vec![0u64; 2];
        assert_eq!(ip_code_query(&code, &query), 0);
    }
}
