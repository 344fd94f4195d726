//! Golden answers: bit-identity as a checked-in fact.
//!
//! Each case below hashes exact bytes for fixed seeds with FNV-1a-64 —
//! encoded codes and factors, `IvfRabitq::search_into` answers (ids,
//! distance bits, work counts), a 4-segment `Collection` with memtable
//! rows and tombstones searched serially and in batches, and the bytes of
//! a written segment file and manifest. `tests/golden.txt` holds one
//! `name digest` line per case.
//!
//! A change that claims bit-identity leaves `golden.txt` untouched. A
//! change to the format or the RNG stream re-bases it: the failure message
//! prints the full recomputed file, and every changed line is named in the
//! change log.

use rabitq::core::{RabitqConfig, RotatorKind};
use rabitq::data::{generate, Dataset, DatasetSpec, Profile};
use rabitq::ivf::{IvfConfig, IvfRabitq, RerankStrategy, SearchResult, SearchScratch};
use rabitq::store::{Collection, CollectionConfig, ParallelOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

const GOLDEN: &str = include_str!("golden.txt");

/// FNV-1a-64 over a stream of exact bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// One answer: ids, distance bits and both work counts.
    fn answer(&mut self, neighbors: &[(u32, f32)], n_estimated: usize, n_reranked: usize) {
        self.u64(neighbors.len() as u64);
        for &(id, dist) in neighbors {
            self.bytes(&id.to_le_bytes());
            self.bytes(&dist.to_bits().to_le_bytes());
        }
        self.u64(n_estimated as u64);
        self.u64(n_reranked as u64);
    }

    fn result(&mut self, res: &SearchResult) {
        self.answer(&res.neighbors, res.n_estimated, res.n_reranked);
    }
}

fn dataset(n: usize, dim: usize, n_queries: usize, seed: u64) -> Dataset {
    generate(&DatasetSpec {
        name: "golden".into(),
        dim,
        n,
        n_queries,
        profile: Profile::Clustered {
            clusters: 12,
            cluster_std: 0.8,
            center_scale: 3.0,
        },
        seed,
    })
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rabitq-golden-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn config(rotator: RotatorKind) -> RabitqConfig {
    RabitqConfig {
        rotator,
        ..RabitqConfig::default()
    }
}

/// Codes and factors of one bucket-shaped encode, per rotator kind. `dim`
/// 100 is not a power of two, so the padding path is covered too.
fn codes(rotator: RotatorKind) -> u64 {
    let ds = dataset(300, 100, 1, 1);
    let quantizer = rabitq::core::Rabitq::new(ds.dim, config(rotator));
    let centroid = ds.query(0);
    let set = quantizer.encode_set(ds.data.chunks_exact(ds.dim), centroid);
    let mut bytes = Vec::new();
    set.write(&mut bytes).unwrap();
    let mut h = Fnv::new();
    h.bytes(&bytes);
    h.0
}

/// `IvfRabitq::search_into` answers over one reused scratch, for every
/// re-rank strategy the index offers.
fn ivf_search(rotator: RotatorKind) -> u64 {
    let ds = dataset(2000, 48, 25, 2);
    let index = IvfRabitq::build(&ds.data, ds.dim, &IvfConfig::new(24), config(rotator));
    let mut scratch = SearchScratch::new();
    let mut rng = StdRng::seed_from_u64(3);
    let mut h = Fnv::new();
    for strategy in [
        RerankStrategy::ErrorBound,
        RerankStrategy::ErrorBoundWithEpsilon(1.0),
        RerankStrategy::TopCandidates(40),
        RerankStrategy::None,
    ] {
        for qi in 0..ds.queries.len() / ds.dim {
            let (n_estimated, n_reranked) =
                index.search_into(ds.query(qi), 10, 6, strategy, &mut scratch, &mut rng);
            h.answer(&scratch.neighbors, n_estimated, n_reranked);
        }
    }
    h.0
}

/// A collection with exactly four sealed segments, unsealed memtable rows
/// and tombstones in both, searched through `CollectionReader::search`
/// and `search_many` at one and two threads, plus the bytes it wrote.
fn collection_cases() -> Vec<(String, u64)> {
    let dir = tmp_dir("collection");
    let ds = dataset(1100, 32, 20, 4);
    let mut cfg = CollectionConfig::new(ds.dim);
    cfg.memtable_capacity = 250; // 1100 rows ⇒ 4 seals + 100 unsealed
    cfg.auto_compact = false;
    let mut c = Collection::open(&dir, cfg).unwrap();
    for v in ds.data.chunks_exact(ds.dim) {
        c.insert(v).unwrap();
    }
    assert_eq!(c.n_segments(), 4);
    assert_eq!(c.memtable_len(), 100);
    for id in (0..1100).step_by(9) {
        assert!(c.delete(id).unwrap());
    }

    let reader = c.reader();
    let n_queries = ds.queries.len() / ds.dim;
    let mut cases = Vec::new();

    let mut rng = StdRng::seed_from_u64(5);
    let mut h = Fnv::new();
    for qi in 0..n_queries {
        h.result(&reader.search(ds.query(qi), 10, 4, &mut rng));
    }
    cases.push(("collection_search".to_string(), h.0));

    for threads in [1, 2] {
        let mut h = Fnv::new();
        let opts = ParallelOptions { threads, seed: 6 };
        for res in reader.search_many(&ds.queries, 10, 4, opts) {
            h.result(&res);
        }
        cases.push((format!("collection_search_many_{threads}t"), h.0));
    }

    let mut files: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.ends_with(".rbq"))
        .collect();
    files.sort();
    assert_eq!(files.len(), 4);
    for (case, file) in [
        ("segment_file", files[0].as_str()),
        ("manifest_file", "MANIFEST"),
    ] {
        let mut h = Fnv::new();
        h.bytes(&std::fs::read(dir.join(file)).unwrap());
        cases.push((case.to_string(), h.0));
    }
    drop(c);
    std::fs::remove_dir_all(&dir).ok();
    cases
}

#[test]
fn answers_and_bytes_match_the_golden_digests() {
    let mut computed = vec![
        (
            "codes_hadamard".to_string(),
            codes(RotatorKind::RandomizedHadamard),
        ),
        (
            "codes_dense".to_string(),
            codes(RotatorKind::DenseOrthogonal),
        ),
        (
            "ivf_search_into_hadamard".to_string(),
            ivf_search(RotatorKind::RandomizedHadamard),
        ),
        (
            "ivf_search_into_dense".to_string(),
            ivf_search(RotatorKind::DenseOrthogonal),
        ),
    ];
    computed.extend(collection_cases());

    let expected: Vec<(&str, &str)> = GOLDEN
        .lines()
        .filter(|line| !line.trim().is_empty())
        .map(|line| line.split_once(' ').expect("`name digest` line"))
        .collect();
    let rendered: String = computed
        .iter()
        .map(|(name, digest)| format!("{name} {digest:016x}\n"))
        .collect();

    let mut mismatches = Vec::new();
    for (name, digest) in &computed {
        let got = format!("{digest:016x}");
        match expected.iter().find(|(n, _)| n == name) {
            Some((_, want)) if *want == got => {}
            Some((_, want)) => mismatches.push(format!("{name}: golden {want}, computed {got}")),
            None => mismatches.push(format!("{name}: missing from golden.txt, computed {got}")),
        }
    }
    for (name, _) in &expected {
        if !computed.iter().any(|(n, _)| n == name) {
            mismatches.push(format!("{name}: in golden.txt but no longer computed"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "golden digests differ:\n  {}\nrecomputed golden.txt:\n{rendered}",
        mismatches.join("\n  ")
    );
}
