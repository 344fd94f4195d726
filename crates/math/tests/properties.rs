//! Property-based tests for the math substrate, the bounded top-K heap
//! among them.

use proptest::prelude::*;
use rabitq_math::hadamard::fwht;
use rabitq_math::simd::{self, Kernel};
use rabitq_math::topk::TopK;
use rabitq_math::vecs;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn finite_vec(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-100.0f32..100.0, len)
}

proptest! {
    #[test]
    fn dot_is_commutative(len in 1usize..64, seed in 0u64..1000) {
        let (a, b) = two_vecs(len, seed);
        let ab = vecs::dot(&a, &b);
        let ba = vecs::dot(&b, &a);
        prop_assert!((ab - ba).abs() <= 1e-3 * (1.0 + ab.abs()));
    }

    #[test]
    fn dot_is_bilinear(len in 1usize..48, seed in 0u64..1000, alpha in -5.0f32..5.0) {
        let (a, b) = two_vecs(len, seed);
        let scaled: Vec<f32> = a.iter().map(|x| x * alpha).collect();
        let lhs = vecs::dot(&scaled, &b);
        let rhs = alpha * vecs::dot(&a, &b);
        prop_assert!((lhs - rhs).abs() <= 1e-2 * (1.0 + rhs.abs()));
    }

    #[test]
    fn l2_sq_equals_expansion(len in 1usize..64, seed in 0u64..1000) {
        let (a, b) = two_vecs(len, seed);
        let direct = vecs::l2_sq(&a, &b) as f64;
        let expanded = vecs::dot_f64(&a, &a) + vecs::dot_f64(&b, &b)
            - 2.0 * vecs::dot_f64(&a, &b);
        prop_assert!((direct - expanded).abs() <= 1e-2 * (1.0 + expanded.abs()));
    }

    #[test]
    fn cauchy_schwarz_holds(len in 1usize..64, seed in 0u64..1000) {
        let (a, b) = two_vecs(len, seed);
        let ip = vecs::dot_f64(&a, &b).abs();
        let bound = vecs::norm_sq_f64(&a).sqrt() * vecs::norm_sq_f64(&b).sqrt();
        prop_assert!(ip <= bound * (1.0 + 1e-5) + 1e-6);
    }

    #[test]
    fn triangle_inequality_holds(len in 1usize..48, seed in 0u64..1000) {
        let (a, b) = two_vecs(len, seed);
        let zero = vec![0.0f32; len];
        let ab = vecs::l2_sq(&a, &b).sqrt() as f64;
        let a0 = vecs::l2_sq(&a, &zero).sqrt() as f64;
        let b0 = vecs::l2_sq(&b, &zero).sqrt() as f64;
        prop_assert!(ab <= a0 + b0 + 1e-3);
    }

    #[test]
    fn normalize_yields_unit_norm_or_zero(v in finite_vec(32)) {
        let mut w = v.clone();
        let n = vecs::normalize(&mut w);
        if n > f32::EPSILON {
            prop_assert!((vecs::norm(&w) - 1.0).abs() < 1e-3);
        } else {
            prop_assert_eq!(w, v);
        }
    }

    #[test]
    fn min_max_brackets_every_element(v in finite_vec(20)) {
        let (lo, hi) = vecs::min_max(&v);
        for &x in &v {
            prop_assert!(x >= lo && x <= hi);
        }
    }

    #[test]
    fn fwht_self_inverse_up_to_scale(seed in 0u64..1000, log_n in 2u32..8) {
        let n = 1usize << log_n;
        let (orig, _) = two_vecs(n, seed);
        let mut v = orig.clone();
        fwht(&mut v);
        fwht(&mut v);
        for (x, y) in v.iter().zip(orig.iter()) {
            prop_assert!((x / n as f32 - y).abs() < 1e-2);
        }
    }

    #[test]
    fn l1_norm_dominates_l2_norm(v in finite_vec(24)) {
        // ‖v‖₂ ≤ ‖v‖₁ ≤ √D·‖v‖₂.
        let l1 = vecs::l1_norm_f64(&v);
        let l2 = vecs::norm_sq_f64(&v).sqrt();
        prop_assert!(l2 <= l1 + 1e-4);
        prop_assert!(l1 <= (v.len() as f64).sqrt() * l2 + 1e-4);
    }

    #[test]
    fn topk_matches_sort_reference(
        entries in proptest::collection::vec((0u32..1000, 0.0f32..100.0), 0..200),
        k in 1usize..20,
    ) {
        let mut heap = TopK::new(k);
        for &(id, d) in &entries {
            heap.push(id, d);
        }
        let got = heap.into_sorted();

        let mut reference = entries.clone();
        reference.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        reference.truncate(k);
        // Distances must match exactly; ids may differ among ties.
        let got_d: Vec<f32> = got.iter().map(|&(_, d)| d).collect();
        let ref_d: Vec<f32> = reference.iter().map(|&(_, d)| d).collect();
        prop_assert_eq!(got_d, ref_d);
    }

    #[test]
    fn threshold_never_decreases_below_true_kth(
        entries in proptest::collection::vec(0.0f32..100.0, 1..100),
        k in 1usize..10,
    ) {
        let mut heap = TopK::new(k);
        for (i, &d) in entries.iter().enumerate() {
            heap.push(i as u32, d);
        }
        let mut sorted = entries.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        if entries.len() >= k {
            prop_assert_eq!(heap.threshold(), sorted[k - 1]);
        } else {
            prop_assert_eq!(heap.threshold(), f32::INFINITY);
        }
    }
}

fn two_vecs(len: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
    let mut rng = StdRng::seed_from_u64(seed);
    (
        rabitq_math::rng::standard_normal_vec(&mut rng, len),
        rabitq_math::rng::standard_normal_vec(&mut rng, len),
    )
}

// ---- The float reduction kernels (`rabitq_math::simd`) --------------------

/// The canonical reduction order, stated by index instead of by chunk: the
/// oracle every kernel, the portable reference included, must match in bits.
fn canonical_sum(terms: &[f32]) -> f32 {
    let n = terms.len();
    let (whole32, whole8) = (n - n % 32, n - n % 8);
    let mut lanes = [0.0f32; 32];
    for i in 0..whole32 {
        lanes[i % 32] += terms[i];
    }
    for i in whole32..whole8 {
        lanes[i % 8] += terms[i];
    }
    let v = |i: usize| (lanes[i] + lanes[8 + i]) + (lanes[16 + i] + lanes[24 + i]);
    let w = |i: usize| v(i) + v(i + 4);
    let mut sum = (w(0) + w(2)) + (w(1) + w(3));
    for &t in &terms[whole8..] {
        sum += t;
    }
    sum
}

fn l2_terms(a: &[f32], b: &[f32]) -> Vec<f32> {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).collect()
}

fn dot_terms(a: &[f32], b: &[f32]) -> Vec<f32> {
    a.iter().zip(b).map(|(x, y)| x * y).collect()
}

/// Bit equality, except that any two NaNs are equal: `1e18`-magnitude
/// inputs can overflow a `dot` to `inf − inf`, and a NaN's payload is not
/// part of the contract.
fn same_bits(x: f32, y: f32) -> bool {
    x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
}

/// `len` values mixing ±0, subnormals, `1e±18` magnitudes and ordinary
/// numbers, element by element.
fn awkward_vec(rng: &mut StdRng, len: usize) -> Vec<f32> {
    (0..len)
        .map(|_| {
            let x: f32 = rng.gen_range(-2.0f32..2.0);
            match rng.gen_range(0u32..8) {
                0 => 0.0,
                1 => -0.0,
                2 => x * 1e-40,
                3 => x * 1e-18,
                4 => x * 1e18,
                _ => x,
            }
        })
        .collect()
}

/// `a` and `b` as sub-slices starting `off_a` / `off_b` floats into fresh
/// allocations, so the kernels see every alignment modulo 32 bytes.
fn with_unaligned<R>(
    a: &[f32],
    b: &[f32],
    (off_a, off_b): (usize, usize),
    f: impl FnOnce(&[f32], &[f32]) -> R,
) -> R {
    let buf_a = [&vec![f32::NAN; off_a][..], a].concat();
    let buf_b = [&vec![f32::NAN; off_b][..], b].concat();
    f(&buf_a[off_a..], &buf_b[off_b..])
}

fn assert_kernels_match_the_canonical_order(a: &[f32], b: &[f32]) {
    let (want_l2, want_dot) = (
        canonical_sum(&l2_terms(a, b)),
        canonical_sum(&dot_terms(a, b)),
    );
    for kernel in simd::supported_kernels() {
        let (l2, dot) = (simd::l2_sq(kernel, a, b), simd::dot(kernel, a, b));
        assert!(
            same_bits(l2, want_l2),
            "{} l2_sq, len {}: {l2:e} vs {want_l2:e}",
            kernel.name(),
            a.len()
        );
        assert!(
            same_bits(dot, want_dot),
            "{} dot, len {}: {dot:e} vs {want_dot:e}",
            kernel.name(),
            a.len()
        );
    }
}

#[test]
fn kernels_match_the_canonical_order_at_every_short_length() {
    // Every length through three 32-blocks plus every tail shape, at every
    // offset pair: the block / 8-chunk / tail boundaries are all crossed.
    let mut rng = proptest::rng_for("short_lengths", 0);
    for len in 0..=104 {
        for off in 0..8 {
            let (a, b) = (awkward_vec(&mut rng, len), awkward_vec(&mut rng, len));
            with_unaligned(
                &a,
                &b,
                (off, 7 - off),
                assert_kernels_match_the_canonical_order,
            );
        }
    }
}

proptest! {
    #[test]
    fn kernels_match_the_canonical_order(
        len in 0usize..=4100,
        offsets in (0usize..8, 0usize..8),
        seed in any::<u64>(),
        equal in proptest::bool::ANY,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = awkward_vec(&mut rng, len);
        let b = if equal { a.clone() } else { awkward_vec(&mut rng, len) };
        with_unaligned(&a, &b, offsets, assert_kernels_match_the_canonical_order);
    }

    /// Against an `f64` accumulation of the exact terms: each term carries
    /// ≤ 3 roundings and the canonical order adds it through at most
    /// `len/32 + 3` lane additions, 5 tree levels and 7 tail additions, so
    /// the error is under `(len/32 + 20)·ε·Σ|term|` with `ε = 2⁻²³` (twice
    /// the worst case). Scales stop at `1e15` so that nothing overflows.
    #[test]
    fn kernels_stay_within_a_relative_bound_of_f64(
        len in 0usize..=4100,
        offsets in (0usize..8, 0usize..8),
        seed in 0u64..1000,
        scale_exp in -18i32..=15,
    ) {
        let (a, b) = two_vecs(len, seed);
        let scale = 10f32.powi(scale_exp);
        let a: Vec<f32> = a.iter().map(|x| x * scale).collect();
        let b: Vec<f32> = b.iter().map(|x| x * scale).collect();
        let exact = |term: fn(f64, f64) -> f64| -> (f64, f64) {
            a.iter().zip(&b).fold((0.0, 0.0), |(sum, abs), (&x, &y)| {
                let t = term(x as f64, y as f64);
                (sum + t, abs + t.abs())
            })
        };
        let (l2_exact, l2_abs) = exact(|x, y| (x - y) * (x - y));
        let (dot_exact, dot_abs) = exact(|x, y| x * y);
        let rel = (len / 32 + 20) as f64 * f32::EPSILON as f64;
        // Terms below the smallest normal `f32` lose relative precision.
        let floor = len as f64 * f32::MIN_POSITIVE as f64;
        with_unaligned(&a, &b, offsets, |a, b| {
            for kernel in simd::supported_kernels() {
                let l2 = simd::l2_sq(kernel, a, b) as f64;
                let dot = simd::dot(kernel, a, b) as f64;
                prop_assert!((l2 - l2_exact).abs() <= rel * l2_abs + floor,
                    "{} l2_sq, len {len}: {l2:e} vs {l2_exact:e}", kernel.name());
                prop_assert!((dot - dot_exact).abs() <= rel * dot_abs + floor,
                    "{} dot, len {len}: {dot:e} vs {dot_exact:e}", kernel.name());
            }
        });
    }

    #[test]
    fn distance_to_itself_is_exactly_zero_and_norm_is_sqrt_of_dot(
        len in 0usize..=4100,
        offsets in (0usize..8, 0usize..8),
        seed in any::<u64>(),
    ) {
        // Finite inputs only here: `inf − inf` is not zero.
        let a: Vec<f32> = awkward_vec(&mut StdRng::seed_from_u64(seed), len)
            .iter()
            .map(|x| x.clamp(-1e15, 1e15))
            .collect();
        with_unaligned(&a, &a, offsets, |a, a_again| {
            for kernel in simd::supported_kernels() {
                prop_assert_eq!(simd::l2_sq(kernel, a, a_again).to_bits(), 0.0f32.to_bits());
            }
            prop_assert_eq!(vecs::l2_sq(a, a_again).to_bits(), 0.0f32.to_bits());
            prop_assert_eq!(vecs::norm(a).to_bits(), vecs::dot(a, a).sqrt().to_bits());
        });
    }
}

/// `Σ (a[i] − b[i])²` term by term in `i64`.
fn integer_l2_sq(a: &[u8], b: &[u8]) -> u32 {
    let sum: i64 = a
        .iter()
        .zip(b)
        .map(|(&x, &y)| (x as i64 - y as i64).pow(2))
        .sum();
    u32::try_from(sum).unwrap()
}

#[test]
fn u7_kernels_agree_at_every_length_through_2048() {
    // Random codes at every length (every 64-byte block, 32-byte block and
    // tail shape), misaligned by `len % 32` bytes, and the extreme pairs
    // 0 against 127, whose 127² terms fill `maddubs`' pair sums; each
    // call takes a block of rows, as the coarse probe's does.
    let mut rng = proptest::rng_for("u7_lengths", 0);
    for len in 0..=2048 {
        let off = len % 32;
        let codes = |rng: &mut StdRng, n: usize| -> Vec<u8> {
            (0..off + n).map(|_| rng.gen_range(0u8..=127)).collect()
        };
        let a = codes(&mut rng, len);
        let a = &a[off..];
        let (zeros, maxes) = (vec![0u8; len], vec![127u8; len]);
        let random_rows = codes(&mut rng, 3 * len);
        let cases = [
            (a, [&random_rows[off..], a].concat()),
            (&zeros[..], [&maxes[..], &zeros, &maxes].concat()),
            (&maxes[..], zeros.clone()),
        ];
        for (x, rows) in &cases {
            let n_rows = rows.len().checked_div(len).unwrap_or(2);
            let rows = &rows[..n_rows * len];
            let want: Vec<u32> = (0..n_rows)
                .map(|r| integer_l2_sq(x, &rows[r * len..(r + 1) * len]))
                .collect();
            for kernel in simd::supported_kernels() {
                let mut sums = vec![u32::MAX; n_rows];
                simd::l2_sq_u7(kernel, x, rows, &mut sums);
                assert_eq!(sums, want, "{} l2_sq_u7, len {len}", kernel.name());
            }
        }
    }
}

#[test]
#[should_panic(expected = "rows are not")]
fn l2_sq_u7_rejects_rows_of_another_shape() {
    simd::l2_sq_u7(simd::active_kernel(), &[1; 8], &[1; 20], &mut [0; 2]);
}

#[test]
fn quantise_kernels_write_the_portable_codes() {
    // Grids from the ordinary to the degenerate (no width, overflowing
    // products), over inputs with zeros, subnormals, huge values, NaN and
    // both infinities, at every 32-float block and tail shape.
    let grids = [
        (-3.0f32, 127.0 / 6.0),
        (0.0, 0.0),
        (-1e30, 1e-28),
        (1.0, 1e30),
        (f32::MIN_POSITIVE, 1e38),
    ];
    let mut rng = proptest::rng_for("quantise_lengths", 0);
    for len in (0..=160).chain([959, 960, 2048]) {
        let mut x = awkward_vec(&mut rng, len);
        for v in x.iter_mut() {
            if rng.gen_range(0u32..16) == 0 {
                *v = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][rng.gen_range(0..3)];
            }
        }
        for (lo, inv_step) in grids {
            let mut want = vec![0u8; len];
            simd::quantise_u7(Kernel::SCALAR, &x, lo, inv_step, &mut want);
            assert!(want.iter().all(|&q| q <= 127), "a code above 127");
            for (&v, &q) in x.iter().zip(&want).filter(|(v, _)| v.is_nan()) {
                assert_eq!(q, 0, "{v} must quantise to 0");
            }
            for kernel in simd::supported_kernels() {
                let mut got = vec![0xFFu8; len];
                simd::quantise_u7(kernel, &x, lo, inv_step, &mut got);
                assert_eq!(
                    got,
                    want,
                    "{} quantise_u7, len {len}, grid ({lo}, {inv_step})",
                    kernel.name()
                );
            }
        }
    }
}

#[test]
fn dispatch_picks_a_supported_kernel_and_honours_the_forced_scalar_pass() {
    let active = simd::active_kernel();
    let supported = simd::supported_kernels();
    assert!(supported.contains(&active));
    assert_eq!(supported[0], Kernel::SCALAR);
    // CI re-runs the workspace under RABITQ_FORCE_KERNEL=scalar; the one
    // active kernel then runs every kernel of the module in its portable
    // form. Unforced, the dispatch takes the most capable kernel.
    if std::env::var("RABITQ_FORCE_KERNEL").is_ok() {
        assert_eq!(active, Kernel::SCALAR);
        assert_eq!(active.name(), "scalar");
    } else {
        assert_eq!(Some(&active), supported.last());
    }
}

#[test]
#[should_panic(expected = "vector lengths differ")]
fn l2_sq_rejects_mismatched_lengths() {
    vecs::l2_sq(&[1.0; 40], &[1.0; 48]);
}

#[test]
#[should_panic(expected = "vector lengths differ")]
fn dot_rejects_mismatched_lengths() {
    vecs::dot(&[1.0; 48], &[1.0; 40]);
}
