//! The collection's centre `μ`: recorded in manifest version 2, derived
//! from the segments of a version 1 manifest, validated on read, and shared
//! (with the rotation) by every segment the one query plan scans.

use rabitq_core::persist as p;
use rabitq_core::RotatorKind;
use rabitq_ivf::IvfRabitq;
use rabitq_store::{
    Collection, CollectionConfig, Manifest, Segment, MANIFEST_FILE, QUARANTINE_SUFFIX,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rabitq-centre-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn gaussian(n: usize, dim: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    rabitq_math::rng::standard_normal_vec(&mut rng, n * dim)
}

fn config(dim: usize) -> CollectionConfig {
    let mut config = CollectionConfig::new(dim);
    config.memtable_capacity = 200;
    config.auto_compact = false;
    config
}

/// A collection of `rows` Gaussian rows (a seal every 200) under `config`.
fn ingest(dir: &Path, config: CollectionConfig, rows: &[f32]) {
    let mut c = Collection::open(dir, config).unwrap();
    for row in rows.chunks_exact(c.dim()) {
        c.insert(row).unwrap();
    }
}

/// The version 1 manifest layout, byte for byte: version 2 without the
/// centre, under the old section tag.
fn write_v1(m: &Manifest, path: &Path) {
    let mut buf = Vec::new();
    p::write_header(&mut buf, "store-manifest").unwrap();
    p::write_usize(&mut buf, m.dim).unwrap();
    p::write_u64(&mut buf, m.next_id as u64).unwrap();
    p::write_u64(&mut buf, m.wal_floor as u64).unwrap();
    p::write_u64(&mut buf, m.next_segment_seq).unwrap();
    p::write_u8(&mut buf, m.rabitq.bq).unwrap();
    p::write_f32(&mut buf, m.rabitq.epsilon0).unwrap();
    p::write_u64(&mut buf, m.rabitq.seed).unwrap();
    let kind = match m.rabitq.rotator {
        RotatorKind::DenseOrthogonal => 0,
        RotatorKind::RandomizedHadamard => 1,
        RotatorKind::Identity => 2,
    };
    p::write_u8(&mut buf, kind).unwrap();
    p::write_u64(&mut buf, m.rabitq.padded_dim.unwrap_or(0) as u64).unwrap();
    p::write_usize(&mut buf, m.memtable_capacity).unwrap();
    p::write_usize(&mut buf, m.segments.len()).unwrap();
    for meta in &m.segments {
        p::write_str(&mut buf, &meta.file).unwrap();
        p::write_u32_slice(&mut buf, &meta.tombstones).unwrap();
    }
    std::fs::write(path, buf).unwrap();
}

#[test]
fn first_seal_records_the_centre_and_later_seals_keep_it() {
    let dir = tmp_dir("record");
    let dim = 16;
    let rows = gaussian(650, dim, 1);
    let manifest = dir.join(MANIFEST_FILE);
    let mut c = Collection::open(&dir, config(dim)).unwrap();
    assert_eq!(Manifest::load(&manifest).unwrap().centre, None);
    for row in rows[..200 * dim].chunks_exact(dim) {
        c.insert(row).unwrap();
    }
    let first = Manifest::load(&manifest).unwrap().centre.expect("recorded");
    let segment = Segment::load(&dir.join("seg-000000.rbq")).unwrap();
    assert_eq!(first, segment.index().centre(), "the first segment's own");
    for row in rows[200 * dim..].chunks_exact(dim) {
        c.insert(row).unwrap();
    }
    c.compact().unwrap();
    assert_eq!(c.n_segments(), 1);
    assert_eq!(Manifest::load(&manifest).unwrap().centre, Some(first));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn v1_manifest_opens_derives_the_centre_and_is_written_as_v2() {
    let dir = tmp_dir("v1");
    let dim = 16;
    let rows = gaussian(650, dim, 2);
    ingest(&dir, config(dim), &rows);
    let path = dir.join(MANIFEST_FILE);
    let v2 = Manifest::load(&path).unwrap();
    assert_eq!(v2.segments.len(), 3);
    write_v1(&v2, &path);
    let v1 = Manifest::load(&path).unwrap();
    assert_eq!(v1.centre, None);
    assert_eq!(v1.segments, v2.segments);

    // The size-weighted mean of every segment's centroids, in manifest
    // order.
    let segments: Vec<Segment> = v1
        .segments
        .iter()
        .map(|meta| Segment::load(&dir.join(&meta.file)).unwrap())
        .collect();
    let derived = IvfRabitq::centroid_mean(dim, segments.iter().map(Segment::index));

    let mut c = Collection::open(&dir, config(dim)).unwrap();
    assert_eq!(c.n_segments(), 3);
    assert!(c.health().is_healthy());
    // Opening alone rewrites nothing.
    assert_eq!(Manifest::load(&path).unwrap().centre, None);
    let reader = c.reader();
    let mut rng = StdRng::seed_from_u64(3);
    for id in [0usize, 150, 333, 599, 640] {
        let res = reader.search(&rows[id * dim..(id + 1) * dim], 3, 64, &mut rng);
        assert_eq!(res.neighbors[0].0, id as u32, "row {id} finds itself");
    }

    // The next manifest switch writes version 2 with the derived centre.
    c.seal().unwrap();
    let rewritten = Manifest::load(&path).unwrap();
    assert_eq!(rewritten.centre.as_deref(), Some(derived.as_slice()));
    let bytes = std::fs::read(&path).unwrap();
    assert!(
        bytes.windows(17).any(|w| w == b"store-manifest-v2"),
        "rewritten as version 2"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hostile_centre_bytes_are_errors_not_panics() {
    let dir = tmp_dir("hostile");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(MANIFEST_FILE);
    let dim = 4;
    let mut m = Manifest::new(dim);
    m.centre = Some(vec![1.0, -2.0, 0.5, 3.0]);
    m.store(&path).unwrap();
    let good = std::fs::read(&path).unwrap();
    assert_eq!(Manifest::load(&path).unwrap(), m);

    // Where the centre's length prefix sits: the first byte at which the
    // same manifest without a centre differs.
    m.centre = None;
    m.store(&path).unwrap();
    let bare = std::fs::read(&path).unwrap();
    let at = good.iter().zip(&bare).position(|(a, b)| a != b).unwrap();

    let reject = |bytes: &[u8], what: &str| {
        std::fs::write(&path, bytes).unwrap();
        assert!(Manifest::load(&path).is_err(), "{what} was accepted");
        assert!(
            Collection::open(&dir, CollectionConfig::new(dim)).is_err(),
            "{what}: the collection opened"
        );
    };
    // Truncated anywhere inside or after the centre.
    for cut in at..good.len() {
        reject(&good[..cut], &format!("a manifest cut at byte {cut}"));
    }
    // A lying length prefix: far too long, one short, one long.
    for len in [u64::MAX, 1 << 40, dim as u64 - 1, dim as u64 + 1] {
        let mut bytes = good.clone();
        bytes[at..at + 8].copy_from_slice(&len.to_le_bytes());
        reject(&bytes, &format!("centre length {len}"));
    }
    // Wrong length written whole, and non-finite entries.
    for centre in [
        vec![1.0; dim - 1],
        vec![1.0; dim + 1],
        vec![1.0, f32::NAN, 0.0, 0.0],
        vec![f32::INFINITY, 0.0, 0.0, 0.0],
        vec![0.0, 0.0, 0.0, f32::NEG_INFINITY],
    ] {
        let mut m = Manifest::new(dim);
        m.centre = Some(centre.clone());
        m.store(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        reject(&bytes, &format!("centre {centre:?}"));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_segment_under_another_rotation_is_quarantined() {
    let dim = 16;
    let rows = gaussian(400, dim, 4);
    let mut foreign_configs = Vec::new();
    let mut seed = config(dim);
    seed.rabitq.seed ^= 1;
    foreign_configs.push(("seed", seed));
    let mut kind = config(dim);
    kind.rabitq.rotator = RotatorKind::DenseOrthogonal;
    foreign_configs.push(("kind", kind));
    let mut padded = config(dim);
    padded.rabitq.padded_dim = Some(128);
    foreign_configs.push(("padded", padded));
    for (what, foreign) in foreign_configs {
        let dir = tmp_dir(&format!("rotation-{what}"));
        let other = tmp_dir(&format!("rotation-{what}-other"));
        ingest(&dir, config(dim), &rows);
        ingest(&other, foreign, &rows[..200 * dim]);
        // The foreign segment takes the place of the collection's second.
        std::fs::copy(other.join("seg-000000.rbq"), dir.join("seg-000001.rbq")).unwrap();

        let c = Collection::open(&dir, config(dim)).unwrap();
        let health = c.health();
        assert!(health.degraded, "{what}");
        assert_eq!(health.quarantined_segments, 1, "{what}");
        assert_eq!(c.n_segments(), 1, "{what}");
        assert!(dir
            .join(format!("seg-000001.rbq{QUARANTINE_SUFFIX}"))
            .exists());
        // The surviving segment still answers.
        let mut rng = StdRng::seed_from_u64(5);
        let res = c.reader().search(&rows[..dim], 1, 64, &mut rng);
        assert_eq!(res.neighbors[0].0, 0, "{what}");
        drop(c);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&other).ok();
    }
}
