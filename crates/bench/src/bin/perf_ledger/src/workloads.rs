//! The four workloads and their frozen shapes. `BENCHMARK.json` admits no
//! keys beyond the driver's contract, so the sizes, the calibrated
//! `nprobe` and the recall floors live here (and in the README).

use rabitq_data::registry::PaperDataset;

/// Neighbours asked of every search.
pub const K: usize = 10;
/// Distinct query vectors every loop cycles through.
pub const N_QUERIES: usize = 1000;
/// Queries per `search_many` call in the batch phase.
pub const BATCH: usize = 64;
/// Measured seconds per run when `--seconds` is absent; equals
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 20.0;
/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// `mixed_rw_d128` writer: memtable rows per seal, inserts per delete.
pub const MIXED_MEMTABLE: usize = 2000;
pub const INSERTS_PER_DELETE: usize = 10;
/// Queries scored against the live-row oracle after `mixed_rw_d128`.
pub const MIXED_SCORED_QUERIES: usize = 200;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// In-process `CollectionReader::search`, one caller.
    Engine,
    /// The same collection behind `Server::start` on loopback.
    Http,
    /// One writer beside one reader.
    MixedRw,
}

#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub name: &'static str,
    pub kind: Kind,
    pub dataset: PaperDataset,
    /// Rows ingested and sealed during set-up.
    pub n: usize,
    /// Sealed segments after set-up.
    pub segments: usize,
    /// Extra rows generated for the `MixedRw` writer to insert.
    pub pool: usize,
    /// Buckets probed per segment; calibrated once so `recall_at_10`
    /// lands in 0.88–0.97 on seeds 1–10, then frozen.
    pub nprobe: usize,
    /// `recall_at_10` below this fails the run.
    pub recall_floor: f64,
}

pub const NAMES: [&str; 4] = ["engine_d128", "engine_d960", "http_d128", "mixed_rw_d128"];

/// The frozen shapes, or their `--smoke` reductions (n = 2 000).
pub fn shapes(smoke: bool) -> [Shape; 4] {
    let n = |full: usize| if smoke { 2_000 } else { full };
    [
        Shape {
            name: NAMES[0],
            kind: Kind::Engine,
            dataset: PaperDataset::Sift,
            n: n(24_000),
            segments: 4,
            pool: 0,
            nprobe: 3,
            recall_floor: 0.89,
        },
        Shape {
            name: NAMES[1],
            kind: Kind::Engine,
            dataset: PaperDataset::Gist,
            n: n(3_200),
            segments: 4,
            pool: 0,
            nprobe: 2,
            recall_floor: 0.87,
        },
        Shape {
            name: NAMES[2],
            kind: Kind::Http,
            dataset: PaperDataset::Sift,
            n: n(24_000),
            segments: 4,
            pool: 0,
            nprobe: 3,
            recall_floor: 0.89,
        },
        Shape {
            name: NAMES[3],
            kind: Kind::MixedRw,
            dataset: PaperDataset::Sift,
            n: n(12_000),
            segments: 2,
            pool: if smoke { 20_000 } else { 150_000 },
            nprobe: 4,
            recall_floor: 0.9,
        },
    ]
}
