//! Property-based tests for the IVF layer: search invariants over random
//! workloads.

use proptest::prelude::*;
use rabitq_core::RabitqConfig;
use rabitq_ivf::{IvfConfig, IvfRabitq};
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn search_returns_sorted_unique_ids(seed in 0u64..20, k in 1usize..15, nprobe in 1usize..8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dim = 16;
        let n = 300;
        let data = rabitq_math::rng::standard_normal_vec(&mut rng, n * dim);
        let index = IvfRabitq::build(&data, dim, &IvfConfig::new(6), RabitqConfig::default());
        let query = rabitq_math::rng::standard_normal_vec(&mut rng, dim);
        let res = index.search(&query, k, nprobe, &mut rng);
        prop_assert!(res.neighbors.len() <= k);
        prop_assert!(res.neighbors.windows(2).all(|w| w[0].1 <= w[1].1));
        let mut ids: Vec<u32> = res.neighbors.iter().map(|&(id, _)| id).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), res.neighbors.len());
        prop_assert!(res.n_reranked <= res.n_estimated);
    }
}
