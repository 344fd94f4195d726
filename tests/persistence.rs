//! Index persistence: save/load round-trips must preserve search behaviour
//! exactly (same rotation, same codes, same factors ⇒ same estimates).

mod common;

use rabitq::core::{persist, Rabitq, RabitqConfig, RotatorKind};
use rabitq::data::registry::PaperDataset;
use rabitq::data::Dataset;
use rabitq::graph::{GraphRabitq, GraphRabitqConfig};
use rabitq::ivf::{IvfConfig, IvfRabitq, SearchResult};
use rabitq::store::Segment;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn tmp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("rabitq-persist-{name}-{}", std::process::id()))
}

#[test]
fn ivf_index_round_trips_with_identical_search_results() {
    // The load derives every rotated centroid with the stored rotation,
    // so each rotator kind must reproduce the built index bit for bit.
    let ds = PaperDataset::Sift.generate(1_500, 8, 3);
    for rotator in [
        RotatorKind::RandomizedHadamard,
        RotatorKind::DenseOrthogonal,
        RotatorKind::Identity,
    ] {
        let config = RabitqConfig {
            rotator,
            ..RabitqConfig::default()
        };
        let index = IvfRabitq::build(&ds.data, ds.dim, &IvfConfig::new(10), config);
        let path = tmp_path("ivf");
        index.save(&path).unwrap();
        let loaded = IvfRabitq::load(&path).unwrap();
        std::fs::remove_file(&path).ok();

        assert_eq!(loaded.len(), index.len());
        assert_eq!(loaded.n_buckets(), index.n_buckets());
        assert_same_answers(&ds, &index, &loaded, &format!("{rotator:?}"));
    }
}

/// Ids, `to_bits` distances and the two counts of one search.
fn answer(res: &SearchResult) -> (Vec<(u32, u32)>, usize, usize) {
    let neighbors = res
        .neighbors
        .iter()
        .map(|&(id, d)| (id, d.to_bits()))
        .collect();
    (neighbors, res.n_estimated, res.n_reranked)
}

/// Every query of `ds` answers the same, bit for bit, on both indexes.
fn assert_same_answers(ds: &Dataset, a: &IvfRabitq, b: &IvfRabitq, what: &str) {
    for qi in 0..ds.n_queries() {
        // Identical RNG stream ⇒ identical randomized rounding ⇒ results
        // must match exactly.
        let mut rng_a = StdRng::seed_from_u64(qi as u64);
        let mut rng_b = StdRng::seed_from_u64(qi as u64);
        let got_a = a.search(ds.query(qi), 10, 10, &mut rng_a);
        let got_b = b.search(ds.query(qi), 10, 10, &mut rng_b);
        assert_eq!(answer(&got_a), answer(&got_b), "{what} query {qi}");
    }
}

#[test]
fn legacy_ivf_v2_streams_load_and_answer_bit_identically() {
    let ds = PaperDataset::Sift.generate(1_200, 8, 4);
    let index = IvfRabitq::build(
        &ds.data,
        ds.dim,
        &IvfConfig::new(12),
        RabitqConfig::default(),
    );
    index.remove(17);
    let mut v3 = Vec::new();
    index.write(&mut v3).unwrap();
    let v2 = common::ivf_v2(&v3);

    let loaded = IvfRabitq::read(&mut v2.as_slice()).unwrap();
    assert!(loaded.is_deleted(17));
    assert_same_answers(&ds, &index, &loaded, "ivf-rabitq-v2");

    // The same stream inside a checksummed segment file.
    let ids: Vec<u32> = (0..ds.n() as u32).collect();
    let segment = Segment::build(
        "seg.rbq".into(),
        ids,
        &ds.data,
        ds.dim,
        &IvfConfig::new(12),
        RabitqConfig::default(),
        None,
    );
    let mut file = Vec::new();
    segment.write(&mut file).unwrap();
    let legacy = common::segment_with_ivf_v2(&file);
    let loaded = Segment::read(&mut legacy.as_slice(), "seg.rbq".into(), None).unwrap();
    assert_same_answers(&ds, segment.index(), loaded.index(), "segment");

    // A v1 file (no tombstone bitmap) is still refused, by name.
    let mut body = v2.as_slice();
    persist::read_header(&mut body).unwrap();
    let mut v1 = Vec::new();
    persist::write_header(&mut v1, "ivf-rabitq").unwrap();
    v1.extend_from_slice(body);
    let err = IvfRabitq::read(&mut v1.as_slice())
        .err()
        .expect("a v1 file loaded");
    assert!(err.to_string().contains("v1 ivf-rabitq file"), "{err}");
}

#[test]
fn legacy_graph_v1_streams_load_and_answer_bit_identically() {
    let ds = PaperDataset::Sift.generate(400, 8, 5);
    let config = GraphRabitqConfig {
        centroids: 4,
        ..GraphRabitqConfig::default()
    };
    let index = GraphRabitq::build(&ds.data, ds.dim, config);
    let mut v2 = Vec::new();
    index.write(&mut v2).unwrap();
    let v1 = common::graph_v1(&v2);
    let loaded = GraphRabitq::read(&mut v1.as_slice()).unwrap();
    for qi in 0..ds.n_queries() {
        let mut rng_a = StdRng::seed_from_u64(qi as u64);
        let mut rng_b = StdRng::seed_from_u64(qi as u64);
        let a = index.search(ds.query(qi), 10, 40, &mut rng_a);
        let b = loaded.search(ds.query(qi), 10, 40, &mut rng_b);
        let bits = |n: &[(u32, f32)]| -> Vec<(u32, u32)> {
            n.iter().map(|&(id, d)| (id, d.to_bits())).collect()
        };
        assert_eq!(bits(&a.neighbors), bits(&b.neighbors), "query {qi}");
        assert_eq!((a.n_estimated, a.n_reranked), (b.n_estimated, b.n_reranked));
    }
}

#[test]
fn quantizer_round_trips_for_every_rotator_kind() {
    let dim = 100;
    let mut rng = StdRng::seed_from_u64(5);
    let v = rabitq::math::rng::standard_normal_vec(&mut rng, dim);
    for kind in [
        RotatorKind::DenseOrthogonal,
        RotatorKind::RandomizedHadamard,
        RotatorKind::Identity,
    ] {
        let q = Rabitq::new(
            dim,
            RabitqConfig {
                rotator: kind,
                ..RabitqConfig::default()
            },
        );
        let mut buf = Vec::new();
        q.write(&mut buf).unwrap();
        let q2 = Rabitq::read(&mut buf.as_slice()).unwrap();
        assert_eq!(q2.dim(), q.dim());
        assert_eq!(q2.padded_dim(), q.padded_dim());
        assert_eq!(q2.config().rotator, kind);
        // The restored rotation must be numerically identical.
        assert_eq!(q.rotate(&v), q2.rotate(&v), "{kind:?}");
    }
}

#[test]
fn code_sets_round_trip_bit_for_bit() {
    let dim = 64;
    let q = Rabitq::new(dim, RabitqConfig::default());
    let mut rng = StdRng::seed_from_u64(9);
    let data: Vec<Vec<f32>> = (0..50)
        .map(|_| rabitq::math::rng::standard_normal_vec(&mut rng, dim))
        .collect();
    let centroid = vec![0.0f32; dim];
    let codes = q.encode_set(data.iter().map(|v| v.as_slice()), &centroid);
    let mut buf = Vec::new();
    codes.write(&mut buf).unwrap();
    let restored = rabitq::core::CodeSet::read(&mut buf.as_slice()).unwrap();
    assert_eq!(restored.len(), codes.len());
    for i in 0..codes.len() {
        assert_eq!(restored.code_bits(i), codes.code_bits(i));
        assert_eq!(restored.factors(i), codes.factors(i));
    }
}

#[test]
fn corrupted_files_are_rejected_not_misread() {
    let ds = PaperDataset::Image.generate(300, 2, 7);
    let index = IvfRabitq::build(
        &ds.data,
        ds.dim,
        &IvfConfig::new(4),
        RabitqConfig::default(),
    );
    let path = tmp_path("corrupt");
    index.save(&path).unwrap();

    // Truncation.
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
    assert!(IvfRabitq::load(&path).is_err());

    // Wrong magic.
    let mut wrong = bytes.clone();
    wrong[0] = b'X';
    std::fs::write(&path, &wrong).unwrap();
    assert!(IvfRabitq::load(&path).is_err());

    std::fs::remove_file(&path).ok();
}
