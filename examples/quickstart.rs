//! Quickstart: quantize vectors to 1 bit per dimension and estimate
//! distances from the bits.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use rabitq::core::{Rabitq, RabitqConfig};
use rabitq::math::rng::standard_normal_vec;
use rabitq::math::vecs;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let dim = 256;
    let n = 1_000;
    let mut rng = StdRng::seed_from_u64(1);

    // Some data and a centroid to normalize against (Section 3.1.1 of the
    // paper; inside an IVF index this is the bucket centroid).
    let data: Vec<Vec<f32>> = (0..n).map(|_| standard_normal_vec(&mut rng, dim)).collect();
    let centroid = vec![0.0f32; dim];

    // ---- Index phase (Algorithm 1). ----
    let quantizer = Rabitq::new(dim, RabitqConfig::default());
    let codes = quantizer.encode_set(data.iter().map(|v| v.as_slice()), &centroid);
    println!(
        "encoded {n} vectors of D = {dim} into {}-bit codes ({} bytes each)",
        quantizer.padded_dim(),
        quantizer.padded_dim() / 8
    );

    // ---- Query phase (Algorithm 2). ----
    let query = standard_normal_vec(&mut rng, dim);
    let prepared = quantizer.prepare_query(&query, &centroid, &mut rng);

    println!("\n  id  estimated-dist^2  true-dist^2  rel-err   CI covers truth?");
    for (i, row) in data.iter().enumerate().take(8) {
        let est = quantizer.estimate(&prepared, &codes, i);
        let exact = vecs::l2_sq(row, &query);
        let rel = (est.dist_sq - exact).abs() / exact;
        let covered = est.lower_bound <= exact;
        println!(
            "  {i:>2}  {:>16.2}  {:>11.2}  {:>6.2}%   {}",
            est.dist_sq,
            exact,
            rel * 100.0,
            if covered { "yes" } else { "NO" }
        );
    }

    // The estimator is unbiased with error O(1/sqrt(D)) — check the average
    // error over the whole set.
    let mut total = 0.0f64;
    for (i, v) in data.iter().enumerate() {
        let est = quantizer.estimate(&prepared, &codes, i);
        let exact = vecs::l2_sq(v, &query);
        total += ((est.dist_sq - exact).abs() / exact) as f64;
    }
    println!(
        "\naverage relative error over {n} vectors: {:.2}% (32x compression)",
        total / n as f64 * 100.0
    );
}
