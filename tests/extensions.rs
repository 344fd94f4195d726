//! Cross-crate integration tests for the extension features: graph-based
//! search over RaBitQ codes (Section 7 future work) and MIPS/cosine
//! estimation (footnote 8), exercised through the `rabitq` facade the way
//! a downstream user would.

use rabitq::core::{similarity, RabitqConfig};
use rabitq::data::{exact_knn, generate, DatasetSpec, Profile};
use rabitq::graph::{GraphRabitq, GraphRabitqConfig};
use rabitq::ivf::{FlatMips, IvfConfig, IvfRabitq};
use rabitq::math::vecs;
use rabitq::metrics::recall_at_k;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn sift_like(n: usize, n_queries: usize, dim: usize, seed: u64) -> rabitq::data::Dataset {
    generate(&DatasetSpec {
        name: "ext-test".into(),
        dim,
        n,
        n_queries,
        profile: Profile::Clustered {
            clusters: 20,
            cluster_std: 1.0,
            center_scale: 4.0,
        },
        seed,
    })
}

/// Graph traversal over 1-bit codes plus bound-gated re-ranking matches
/// the recall of exact-distance traversal of the same graph (within a few
/// points), and touches far fewer raw vectors than it visits.
#[test]
fn graph_rabitq_tracks_exact_traversal() {
    let (n, dim, k, nq) = (4_000, 64, 10, 15);
    let ds = sift_like(n, nq, dim, 11);
    let gt = exact_knn(&ds.data, ds.dim, &ds.queries, k, 1);
    // Per-cluster normalization (Section 3.1.1): clustered data with a
    // single global centroid would leave residual norms — and therefore
    // confidence intervals — too wide for the bound to prune much.
    let index = GraphRabitq::build(
        &ds.data,
        dim,
        GraphRabitqConfig {
            centroids: 32,
            ..GraphRabitqConfig::default()
        },
    );
    let mut rng = StdRng::seed_from_u64(12);

    let (mut r_exact, mut r_quant) = (0.0, 0.0);
    let (mut est, mut rer) = (0usize, 0usize);
    let ef = 96;
    for (qi, truth) in gt.iter().enumerate().take(nq) {
        let want: Vec<u32> = truth.iter().map(|&(id, _)| id).collect();
        let exact: Vec<u32> = index
            .search_exact(ds.query(qi), k, ef)
            .iter()
            .map(|&(id, _)| id)
            .collect();
        r_exact += recall_at_k(&want, &exact);
        let res = index.search(ds.query(qi), k, ef, &mut rng);
        est += res.n_estimated;
        rer += res.n_reranked;
        let got: Vec<u32> = res.neighbors.iter().map(|&(id, _)| id).collect();
        r_quant += recall_at_k(&want, &got);
    }
    let (r_exact, r_quant) = (r_exact / nq as f64, r_quant / nq as f64);
    assert!(r_exact >= 0.9, "exact traversal recall {r_exact}");
    assert!(
        r_quant >= r_exact - 0.08,
        "quantized {r_quant} vs exact {r_exact}"
    );
    assert!(
        rer < est / 2,
        "bound should gate most raw-vector touches: reranked {rer} of {est} estimated"
    );
}

/// The graph index and a flat (one-bucket) IVF index agree on easy
/// queries (both find the true nearest neighbor of a stored vector:
/// itself).
#[test]
fn graph_and_flat_agree_on_self_queries() {
    let (n, dim) = (2_000, 48);
    let ds = sift_like(n, 1, dim, 13);
    let graph = GraphRabitq::build(&ds.data, dim, GraphRabitqConfig::default());
    let flat = IvfRabitq::build(&ds.data, dim, &IvfConfig::new(1), RabitqConfig::default());
    let mut rng = StdRng::seed_from_u64(14);
    for probe in [3usize, 500, 1999] {
        let query = ds.vector(probe);
        let g = graph.search(query, 1, 64, &mut rng);
        let f = flat.search(query, 1, 1, &mut rng);
        assert_eq!(g.neighbors[0].0 as usize, probe);
        assert_eq!(f.neighbors[0].0 as usize, probe);
    }
}

/// MIPS results through the facade: FlatMips recall against brute force,
/// on clustered (non-centered) data where the centroid terms matter.
#[test]
fn flat_mips_recall_on_clustered_data() {
    let (n, dim, k, nq) = (3_000, 64, 10, 10);
    let ds = sift_like(n, nq, dim, 15);
    let index = FlatMips::build(&ds.data, dim, RabitqConfig::default());
    let mut rng = StdRng::seed_from_u64(16);
    let mut recall = 0.0;
    for qi in 0..nq {
        let query = ds.query(qi);
        let mut truth: Vec<(u32, f32)> = (0..n)
            .map(|i| (i as u32, vecs::dot(ds.vector(i), query)))
            .collect();
        truth.sort_unstable_by(|a, b| b.1.total_cmp(&a.1));
        let want: Vec<u32> = truth[..k].iter().map(|&(id, _)| id).collect();
        let got: Vec<u32> = index
            .search_ip(query, k, &mut rng)
            .neighbors
            .iter()
            .map(|&(id, _)| id)
            .collect();
        recall += recall_at_k(&want, &got);
    }
    recall /= nq as f64;
    assert!(recall >= 0.9, "MIPS recall@{k} = {recall}");
}

/// The similarity lift is consistent with the distance estimate it came
/// from: `‖o−q‖² = ‖o‖² + ‖q‖² − 2⟨o,q⟩` must hold between the two
/// estimates of the same (query, code) pair, exactly (same randomness).
#[test]
fn distance_and_ip_estimates_satisfy_the_polarization_identity() {
    let (n, dim) = (200, 96);
    let ds = sift_like(n, 1, dim, 17);
    let quantizer = rabitq::core::Rabitq::new(dim, RabitqConfig::default());
    let mut centroid = vec![0.0f32; dim];
    for i in 0..n {
        vecs::add_assign(&mut centroid, ds.vector(i));
    }
    vecs::scale(&mut centroid, 1.0 / n as f32);
    let codes = quantizer.encode_set((0..n).map(|i| ds.vector(i)), &centroid);
    let mut rng = StdRng::seed_from_u64(18);
    let query = ds.query(0);
    let prepared = quantizer.prepare_query(query, &centroid, &mut rng);
    let terms = similarity::IpQueryTerms::new(query, &centroid);
    let norm_q_sq = vecs::dot(query, query);
    for i in 0..n {
        let de = quantizer.estimate(&prepared, &codes, i);
        let f = codes.factors(i);
        let ip_oc = vecs::dot(ds.vector(i), &centroid);
        let ip = similarity::inner_product(&de, f.norm, prepared.q_dist, ip_oc, terms);
        let norm_o_sq = vecs::dot(ds.vector(i), ds.vector(i));
        let dist_from_ip = norm_o_sq + norm_q_sq - 2.0 * ip.ip;
        let rel = (dist_from_ip - de.dist_sq).abs() / de.dist_sq.max(1e-3);
        assert!(
            rel < 1e-3,
            "vector {i}: distance estimate {} vs polarization {dist_from_ip}",
            de.dist_sq
        );
    }
}

/// Graph index persistence through the facade: save, load, equal answers.
#[test]
fn graph_persistence_through_facade() {
    let (n, dim) = (800, 32);
    let ds = sift_like(n, 1, dim, 19);
    let index = GraphRabitq::build(&ds.data, dim, GraphRabitqConfig::default());
    let mut buf = Vec::new();
    index.write(&mut buf).unwrap();
    let loaded = GraphRabitq::read(&mut buf.as_slice()).unwrap();
    let mut r1 = StdRng::seed_from_u64(20);
    let mut r2 = StdRng::seed_from_u64(20);
    assert_eq!(
        index.search(ds.query(0), 10, 64, &mut r1).neighbors,
        loaded.search(ds.query(0), 10, 64, &mut r2).neighbors
    );
}
