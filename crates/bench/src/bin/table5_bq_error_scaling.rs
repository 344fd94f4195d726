//! **Table 5 (appendix)** — the error of randomized uniform scalar
//! quantization is `O(Δ)`, not the trivial `O(√D·Δ)`.
//!
//! Measures `|⟨x̄, q'⟩ − ⟨x̄, q̄⟩|` across dimensions and `B_q` values and
//! reports the ratio `error/Δ`. Appendix D proves the randomized rounding
//! concentrates this ratio to O(1) independently of D (Hoeffding), while
//! deterministic worst-case reasoning would allow it to grow as √D — the
//! gap that lets `B_q = Θ(log log D)` suffice (Theorem 3.3).
//!
//! ```text
//! cargo run --release -p rabitq-bench --bin table5_bq_error_scaling
//! ```

use rabitq_bench::{Args, Table};
use rabitq_core::estimator::QueryTerms;
use rabitq_core::kernels::ip_code_query;
use rabitq_core::QuantizedQuery;
use rabitq_math::rng::standard_normal_vec;
use rabitq_math::vecs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let args = Args::parse();
    let trials = args.usize("trials", 400);
    let seed = args.u64("seed", 42);

    println!("# Table 5: scalar-quantization error scaling (|<x,q'> - <x,q-bar>|)");
    println!("# randomized rounding => error/Delta stays O(1) as D grows\n");

    let mut table = Table::new(&[
        "D",
        "B_q",
        "mean |err|",
        "mean Delta",
        "mean |err|/Delta",
        "trivial bound sqrt(D)",
    ]);
    let mut rng = StdRng::seed_from_u64(seed);
    for &dim in &[128usize, 512, 2048] {
        for &bq in &[2u8, 4, 6] {
            let mut err_sum = 0.0f64;
            let mut delta_sum = 0.0f64;
            let mut ratio_sum = 0.0f64;
            for _ in 0..trials {
                // Random unit residual and random sign code.
                let residual = standard_normal_vec(&mut rng, dim);
                let norm = vecs::norm(&residual);
                let query = QuantizedQuery::from_rotated_residual(&residual, bq, &mut rng);
                let words = dim / 64;
                let code: Vec<u64> = (0..words).map(|_| rng.gen()).collect();
                // Exact ⟨x̄, q'⟩ with x̄ = ±1/√D signs from the code.
                let inv_sqrt_d = 1.0 / (dim as f32).sqrt();
                let mut exact = 0.0f64;
                for (d, &raw) in residual.iter().enumerate() {
                    let sign = if (code[d / 64] >> (d % 64)) & 1 == 1 {
                        inv_sqrt_d
                    } else {
                        -inv_sqrt_d
                    };
                    exact += (sign * (raw / norm)) as f64;
                }
                // Quantized ⟨x̄, q̄⟩ via the integer identity (Eq. 20).
                let ip_bin = ip_code_query(&code, &query);
                let popcount: u32 = code.iter().map(|w| w.count_ones()).sum();
                let approx =
                    QueryTerms::new(&query, dim).ip_quantized(ip_bin, popcount, 0.0) as f64;
                let err = (exact - approx).abs();
                let delta = query.delta as f64;
                err_sum += err;
                delta_sum += delta;
                if delta > 0.0 {
                    ratio_sum += err / delta;
                }
            }
            let t = trials as f64;
            table.row(&[
                dim.to_string(),
                bq.to_string(),
                format!("{:.2e}", err_sum / t),
                format!("{:.2e}", delta_sum / t),
                format!("{:.3}", ratio_sum / t),
                format!("{:.1}", (dim as f64).sqrt()),
            ]);
        }
    }
    table.print();
    println!("\nReading: |err|/Delta is O(1) and does not grow with D, unlike the trivial sqrt(D) bound.");
}
