//! Failure injection for every persisted artifact: corrupted, truncated
//! and cross-format streams must surface `Err`, never panics, hangs,
//! unbounded allocations or silently wrong indexes.

mod common;

use rabitq::core::{CodeSet, Rabitq, RabitqConfig};
use rabitq::data::registry::PaperDataset;
use rabitq::graph::{GraphRabitq, GraphRabitqConfig};
use rabitq::ivf::{IvfConfig, IvfRabitq};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tmp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("rabitq-inject-{name}-{}", std::process::id()))
}

fn small_ivf_bytes() -> Vec<u8> {
    let ds = PaperDataset::Sift.generate(300, 2, 7);
    let index = IvfRabitq::build(
        &ds.data,
        ds.dim,
        &IvfConfig::new(4),
        RabitqConfig::default(),
    );
    let path = tmp_path("ivf-src");
    index.save(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    bytes
}

fn load_ivf(bytes: &[u8]) -> std::io::Result<IvfRabitq> {
    let path = tmp_path("ivf-load");
    std::fs::write(&path, bytes).unwrap();
    let r = IvfRabitq::load(&path);
    std::fs::remove_file(&path).ok();
    r
}

/// Every strict prefix of a valid index file fails to load.
#[test]
fn ivf_truncations_error_cleanly() {
    let bytes = small_ivf_bytes();
    for frac in [0usize, 1, 2, 4, 8] {
        let cut = bytes.len() * frac / 10;
        assert!(
            load_ivf(&bytes[..cut]).is_err(),
            "prefix of {cut}/{} bytes must not load",
            bytes.len()
        );
    }
    assert!(
        load_ivf(&bytes[..bytes.len() - 1]).is_err(),
        "one byte short"
    );
    assert!(load_ivf(&bytes).is_ok(), "the intact file must still load");
}

/// Flipping bytes early in the stream (headers, counts, dims) is either
/// detected or still yields a structurally consistent index — it must
/// never panic. Length fields are the dangerous ones: a flipped count
/// must not trigger a multi-gigabyte allocation.
#[test]
fn ivf_header_corruption_is_detected_or_harmless() {
    let bytes = small_ivf_bytes();
    for pos in [0usize, 5, 9, 17, 33, 65] {
        let mut bad = bytes.clone();
        bad[pos] ^= 0xFF;
        match load_ivf(&bad) {
            Err(_) => {}
            Ok(index) => {
                // Not detected at this offset — the index must still be
                // usable without panicking.
                let mut rng = StdRng::seed_from_u64(1);
                let q = vec![0.0f32; index.dim()];
                let _ = index.search(&q, 3, 2, &mut rng);
            }
        }
    }
}

/// Every truncation and a seeded sample of single-byte flips of a small
/// index, in the current layout and in the legacy `ivf-rabitq-v2` one:
/// the decoder returns `Ok` or `Err`, and never panics.
#[test]
fn ivf_decoder_survives_every_truncation_and_sampled_byte_flips() {
    use rand::Rng;
    let dim = 16;
    let mut rng = StdRng::seed_from_u64(41);
    let data = rabitq::math::rng::standard_normal_vec(&mut rng, 96 * dim);
    let index = IvfRabitq::build(&data, dim, &IvfConfig::new(4), RabitqConfig::default());
    index.remove(5);
    let mut v3 = Vec::new();
    index.write(&mut v3).unwrap();
    let v2 = common::ivf_v2(&v3);
    // `Some(loaded)`, or `None` when the decoder panicked.
    let decodes =
        |bytes: &[u8]| std::panic::catch_unwind(|| IvfRabitq::read(&mut &bytes[..]).is_ok()).ok();
    for (layout, bytes) in [("v3", &v3), ("v2", &v2)] {
        assert_eq!(decodes(bytes), Some(true), "{layout}");
        for cut in 0..bytes.len() {
            assert_eq!(
                decodes(&bytes[..cut]),
                Some(false),
                "{layout} cut to {cut} of {} bytes",
                bytes.len()
            );
        }
        for _ in 0..2_000 {
            let mut bad = bytes.clone();
            let pos = rng.gen_range(0..bad.len());
            let flip = rng.gen_range(1..=255u8);
            bad[pos] ^= flip;
            assert!(
                decodes(&bad).is_some(),
                "{layout}: the decoder panicked on byte {pos} ^ {flip:#04x}"
            );
        }
    }
}

/// Appending trailing garbage after a valid stream is ignored by readers
/// that consume exact byte counts (the file may live in a larger
/// container), and the loaded index behaves identically.
#[test]
fn ivf_trailing_garbage_is_tolerated() {
    let mut bytes = small_ivf_bytes();
    let ds = PaperDataset::Sift.generate(300, 2, 7);
    let reference = load_ivf(&bytes).unwrap();
    bytes.extend_from_slice(&[0xAB; 64]);
    let loaded = load_ivf(&bytes).unwrap();
    let mut rng_a = StdRng::seed_from_u64(2);
    let mut rng_b = StdRng::seed_from_u64(2);
    assert_eq!(
        reference.search(ds.query(0), 5, 4, &mut rng_a).neighbors,
        loaded.search(ds.query(0), 5, 4, &mut rng_b).neighbors
    );
}

/// A graph index file does not load as an IVF index and vice versa: the
/// section headers reject cross-format confusion.
#[test]
fn cross_format_files_are_rejected() {
    let ds = PaperDataset::Sift.generate(200, 1, 8);
    let graph = GraphRabitq::build(&ds.data, ds.dim, GraphRabitqConfig::default());
    let mut graph_bytes = Vec::new();
    graph.write(&mut graph_bytes).unwrap();
    assert!(load_ivf(&graph_bytes).is_err(), "graph file loaded as IVF");

    let ivf_bytes = small_ivf_bytes();
    assert!(
        GraphRabitq::read(&mut ivf_bytes.as_slice()).is_err(),
        "IVF file loaded as graph"
    );
}

/// The bare quantizer and code-set readers reject corruption too (they
/// are the building blocks every composite format relies on).
#[test]
fn quantizer_and_codeset_streams_reject_corruption() {
    let dim = 48;
    let quantizer = Rabitq::new(dim, RabitqConfig::default());
    let mut rng = StdRng::seed_from_u64(9);
    let data: Vec<Vec<f32>> = (0..20)
        .map(|_| rabitq::math::rng::standard_normal_vec(&mut rng, dim))
        .collect();
    let centroid = vec![0.0f32; dim];
    let codes = quantizer.encode_set(data.iter().map(|v| v.as_slice()), &centroid);

    let mut qbytes = Vec::new();
    quantizer.write(&mut qbytes).unwrap();
    let mut cbytes = Vec::new();
    codes.write(&mut cbytes).unwrap();

    assert!(Rabitq::read(&mut qbytes[..qbytes.len() / 2].to_vec().as_slice()).is_err());
    assert!(CodeSet::read(&mut cbytes[..cbytes.len() / 3].to_vec().as_slice()).is_err());

    let mut bad = qbytes.clone();
    bad[3] ^= 0x55; // damage the section header
    assert!(Rabitq::read(&mut bad.as_slice()).is_err());

    // Intact streams round-trip.
    let q2 = Rabitq::read(&mut qbytes.as_slice()).unwrap();
    let c2 = CodeSet::read(&mut cbytes.as_slice()).unwrap();
    assert_eq!(q2.padded_dim(), quantizer.padded_dim());
    assert_eq!(c2.len(), codes.len());
}

/// Absurd length prefixes must not cause capacity blow-ups: a stream
/// claiming 2⁶⁰ vectors fails fast (bounded read), it does not OOM.
#[test]
fn absurd_length_fields_fail_fast() {
    let mut bytes = small_ivf_bytes();
    // Find a plausible little-endian length field and inflate it: flip
    // several high bytes across the stream; none of these may OOM/panic.
    for pos in (8..bytes.len().min(256)).step_by(13) {
        let mut bad = bytes.clone();
        bad[pos] = 0xFF;
        if pos + 1 < bad.len() {
            bad[pos + 1] = 0xFF;
        }
        let _ = load_ivf(&bad); // Err or Ok both fine; no panic, no OOM.
    }
    // Hard truncation to just a header plus a huge count.
    bytes.truncate(24);
    bytes.extend_from_slice(&u64::MAX.to_le_bytes());
    assert!(load_ivf(&bytes).is_err());
}
