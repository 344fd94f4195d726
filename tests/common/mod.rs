//! The previous on-disk layouts, assembled from streams the current
//! writers emit, so the legacy readers can be tested without fixtures.
//!
//! `ivf-rabitq-v2` and `graph-rabitq-v1` also persisted two derived
//! values: each code set's popcounts, a `u32` buffer right after the code
//! set, and (IVF only) every centroid rotated, `P⁻¹c`, right after the
//! centroids. Everything else is byte-for-byte the current layout.

#![allow(dead_code)] // each test file uses its own subset

use rabitq::core::persist as p;
use rabitq::core::{CodeSet, Rabitq};

/// The `ivf-rabitq-v2` stream of the index an `ivf-rabitq-v3` stream holds.
pub fn ivf_v2(v3: &[u8]) -> Vec<u8> {
    let mut r = v3;
    let mut out = Vec::new();
    assert_eq!(p::read_header(&mut r).unwrap(), "ivf-rabitq-v3");
    p::write_header(&mut out, "ivf-rabitq-v2").unwrap();
    let dim = p::read_usize(&mut r).unwrap();
    p::write_usize(&mut out, dim).unwrap();
    let quantizer = Rabitq::read(&mut r).unwrap();
    quantizer.write(&mut out).unwrap();
    let centroids = p::read_f32_vec(&mut r).unwrap();
    p::write_f32_slice(&mut out, &centroids).unwrap();
    let rotated: Vec<f32> = centroids
        .chunks_exact(dim)
        .flat_map(|c| quantizer.rotate(c))
        .collect();
    p::write_f32_slice(&mut out, &rotated).unwrap();
    let n_buckets = p::read_usize(&mut r).unwrap();
    p::write_usize(&mut out, n_buckets).unwrap();
    for _ in 0..n_buckets {
        let ids = p::read_u32_vec(&mut r).unwrap();
        p::write_u32_slice(&mut out, &ids).unwrap();
        codes_with_popcounts(&mut r, &mut out);
    }
    out.extend_from_slice(r); // raw rows and tombstones, unchanged
    out
}

/// The `graph-rabitq-v1` stream of the index a `graph-rabitq-v2` stream
/// holds.
pub fn graph_v1(v2: &[u8]) -> Vec<u8> {
    let mut r = v2;
    let mut out = Vec::new();
    assert_eq!(p::read_header(&mut r).unwrap(), "graph-rabitq-v2");
    p::write_header(&mut out, "graph-rabitq-v1").unwrap();
    let rerank = p::read_u8(&mut r).unwrap();
    p::write_u8(&mut out, rerank).unwrap();
    if rerank == 1 {
        p::write_usize(&mut out, p::read_usize(&mut r).unwrap()).unwrap();
    }
    Rabitq::read(&mut r).unwrap().write(&mut out).unwrap();
    codes_with_popcounts(&mut r, &mut out);
    out.extend_from_slice(r); // centroids, assignments and graph, unchanged
    out
}

/// A `store-segment-v2` file whose inner index is in the `ivf-rabitq-v2`
/// layout, from a segment file whose inner index is `ivf-rabitq-v3`.
pub fn segment_with_ivf_v2(file: &[u8]) -> Vec<u8> {
    let mut r = file;
    assert_eq!(p::read_header(&mut r).unwrap(), "store-segment-v2");
    let len = p::read_u64(&mut r).unwrap() as usize;
    let mut payload = &r[..len];
    let ids = p::read_u32_vec(&mut payload).unwrap();
    let mut legacy = Vec::new();
    p::write_u32_slice(&mut legacy, &ids).unwrap();
    legacy.extend_from_slice(&ivf_v2(payload));
    let mut out = Vec::new();
    p::write_header(&mut out, "store-segment-v2").unwrap();
    p::write_u64(&mut out, legacy.len() as u64).unwrap();
    out.extend_from_slice(&legacy);
    out.extend_from_slice(&fnv1a(&legacy).to_le_bytes());
    out
}

/// Copies one code set from `r` to `out` and appends its popcounts.
fn codes_with_popcounts(r: &mut &[u8], out: &mut Vec<u8>) {
    let codes = CodeSet::read(r).unwrap();
    codes.write(out).unwrap();
    let popcounts: Vec<u32> = (0..codes.len())
        .map(|i| codes.factors(i).popcount)
        .collect();
    p::write_u32_slice(out, &popcounts).unwrap();
}

/// The segment checksum: 32-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u32 {
    bytes.iter().fold(0x811c_9dc5, |h: u32, &b| {
        (h ^ b as u32).wrapping_mul(0x0100_0193)
    })
}
