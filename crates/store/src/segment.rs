//! Sealed, immutable segments: an IVF-RaBitQ index plus the remap from its
//! dense local ids to the collection's global ids.
//!
//! A segment is born when the memtable seals (or when compaction merges
//! older segments) and never changes shape again — the only permitted
//! mutation is tombstoning, which the inner [`IvfRabitq`] tracks as a
//! bitmap without disturbing its fast-scan packing. Every segment of a
//! collection shares one rotation and one centre `μ` (the manifest's), so
//! a query is planned once and each segment scans under that plan with
//! the paper's error-bound re-ranking; the distances a segment reports are
//! exact and the estimator's unbiasedness guarantee is untouched by the
//! engine layered on top. The centre and the code offsets derived from it
//! live in memory only: a segment file does not depend on them.
//!
//! On disk a segment is `[header][payload length][payload][fnv1a]`: the
//! whole payload (remap table + inner index) is covered by a checksum
//! verified at open, so a bit-flipped or truncated file is detected
//! deterministically and the collection can quarantine it instead of
//! serving silently wrong codes. The original checksum-less layout
//! (tagged [`SEGMENT_SECTION_V1`]) is still readable for segments
//! written by older releases.

use crate::io::{DiskIo, StorageIo};
use rabitq_core::persist as p;
use rabitq_core::RabitqConfig;
use rabitq_ivf::{CancelToken, IvfConfig, IvfRabitq, RerankStrategy, SearchScratch};
use rand::Rng;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::path::Path;

/// Section tag written by current segments: the checksummed
/// `[header][payload length][payload][fnv1a]` layout.
pub const SEGMENT_SECTION: &str = "store-segment-v2";

/// Section tag of the original format — bare `[header][payload]` with no
/// length prefix or checksum. Still readable: files written by older
/// releases load (without checksum verification) instead of being
/// misparsed as corruption and quarantined; they adopt the current
/// format the next time compaction rewrites them.
pub const SEGMENT_SECTION_V1: &str = "store-segment";

/// One immutable segment of the collection.
pub struct Segment {
    /// File name within the collection directory.
    name: String,
    /// Local (dense, 0-based) id → global collection id.
    ids: Vec<u32>,
    /// Global id → local id, for delete routing.
    lookup: HashMap<u32, u32>,
    index: IvfRabitq,
}

impl Segment {
    /// Builds a fresh segment over `(global id, row)` pairs flattened into
    /// `data`, centred on the collection's `centre` (`None` = the
    /// segment's own centroid mean, which the first seal records as the
    /// collection's). Cluster count follows the `4√n` rule of the paper's
    /// setup; the remaining knobs come from the caller's templates.
    pub fn build(
        name: String,
        ids: Vec<u32>,
        data: &[f32],
        dim: usize,
        ivf_template: &IvfConfig,
        rabitq: RabitqConfig,
        centre: Option<&[f32]>,
    ) -> Self {
        assert_eq!(ids.len() * dim, data.len(), "ids/data shape");
        let mut ivf = ivf_template.clone();
        ivf.n_clusters = IvfConfig::clusters_for(ids.len()).min(ids.len());
        let index = IvfRabitq::build_centred(data, dim, &ivf, rabitq, centre);
        let lookup = ids
            .iter()
            .enumerate()
            .map(|(local, &global)| (global, local as u32))
            .collect();
        Self {
            name,
            ids,
            lookup,
            index,
        }
    }

    /// Serializes the segment: section header, payload length, payload
    /// (remap table + inner index), and an FNV-1a checksum over the
    /// payload that [`Segment::read`] verifies.
    pub fn write<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let mut payload = Vec::new();
        p::write_u32_slice(&mut payload, &self.ids)?;
        self.index.write(&mut payload)?;

        p::write_header(w, SEGMENT_SECTION)?;
        p::write_u64(w, payload.len() as u64)?;
        w.write_all(&payload)?;
        w.write_all(&crate::wal::fnv1a(&payload).to_le_bytes())
    }

    /// Deserializes a segment written by [`Segment::write`]; `name` is the
    /// file name it was read from, `centre` the collection's (`None` = the
    /// segment's own centroid mean). Verifies the payload checksum before
    /// parsing, so corruption anywhere in the file surfaces as an
    /// `InvalidData` error rather than silently wrong codes (as is a
    /// segment whose dimension is not the centre's length).
    pub fn read<R: Read>(r: &mut R, name: String, centre: Option<&[f32]>) -> io::Result<Self> {
        let section = p::read_header(r)?;
        if section == SEGMENT_SECTION_V1 {
            // Legacy layout: the payload follows the header directly, with
            // nothing to checksum-verify. Corruption inside it still
            // surfaces as `InvalidData` from the inner parsers.
            let ids = p::read_u32_vec(r)?;
            let index = IvfRabitq::read_centred(r, centre)?;
            return Self::from_parts(name, ids, index);
        }
        if section != SEGMENT_SECTION {
            return Err(p::invalid(format!(
                "expected segment file, got {section:?}"
            )));
        }
        let payload_len = p::read_u64(r)?;
        if payload_len > 1 << 40 {
            return Err(p::invalid("unreasonable segment payload length"));
        }
        // Read through `take` rather than allocating `payload_len` up
        // front: a corrupt length field must surface as `InvalidData`
        // (so quarantine can run), not as a huge allocation aborting
        // the process. The buffer only ever grows to the bytes that
        // actually exist.
        let mut payload = Vec::new();
        r.by_ref().take(payload_len).read_to_end(&mut payload)?;
        if payload.len() as u64 != payload_len {
            return Err(p::invalid(format!(
                "segment {name:?} payload truncated ({} of {payload_len} bytes)",
                payload.len()
            )));
        }
        let mut crc = [0u8; 4];
        r.read_exact(&mut crc)?;
        if crate::wal::fnv1a(&payload) != u32::from_le_bytes(crc) {
            return Err(p::invalid(format!(
                "segment {name:?} payload checksum mismatch (corrupted file)"
            )));
        }

        let mut cursor = payload.as_slice();
        let ids = p::read_u32_vec(&mut cursor)?;
        let index = IvfRabitq::read_centred(&mut cursor, centre)?;
        if !cursor.is_empty() {
            return Err(p::invalid("segment payload has trailing bytes"));
        }
        Self::from_parts(name, ids, index)
    }

    /// Assembles a parsed segment, validating the remap/index agreement
    /// shared by both on-disk formats.
    fn from_parts(name: String, ids: Vec<u32>, index: IvfRabitq) -> io::Result<Self> {
        if index.len() != ids.len() {
            return Err(p::invalid("segment remap table disagrees with index"));
        }
        let lookup = ids
            .iter()
            .enumerate()
            .map(|(local, &global)| (global, local as u32))
            .collect();
        Ok(Self {
            name,
            ids,
            lookup,
            index,
        })
    }

    /// Loads a segment from `path` on the real filesystem, centred on its
    /// own centroid mean (a segment searched on its own).
    pub fn load(path: &Path) -> io::Result<Self> {
        Self::load_with_io(path, &DiskIo, None)
    }

    /// Loads (and checksum-verifies) a segment through a [`StorageIo`],
    /// centred as [`Segment::read`] says.
    pub fn load_with_io(
        path: &Path,
        io: &dyn StorageIo,
        centre: Option<&[f32]>,
    ) -> io::Result<Self> {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .ok_or_else(|| p::invalid("segment path has no file name"))?
            .to_string();
        let bytes = io.read(path)?;
        Self::read(&mut bytes.as_slice(), name, centre)
    }

    /// Checks that the segment was encoded under the collection's
    /// rotation: same dimension, rotator kind, seed and code length as
    /// `rabitq` (the manifest's). A query plan is rotated once for every
    /// segment, so a segment under another rotation would be scanned with
    /// a query it cannot read; it is reported as `InvalidData`, like a
    /// corrupt file.
    pub fn check_rotation(&self, dim: usize, rabitq: &RabitqConfig) -> io::Result<()> {
        let quantizer = self.index.quantizer();
        let have = quantizer.config();
        let padded = rabitq.rotator.code_length(dim, rabitq.padded_dim);
        if quantizer.dim() != dim
            || have.rotator != rabitq.rotator
            || have.seed != rabitq.seed
            || quantizer.padded_dim() != padded
        {
            return Err(p::invalid(format!(
                "segment {:?} is encoded under {:?} seed {:#x} at {}×{} bits, \
                 the collection under {:?} seed {:#x} at {dim}×{padded}",
                self.name,
                have.rotator,
                have.seed,
                quantizer.dim(),
                quantizer.padded_dim(),
                rabitq.rotator,
                rabitq.seed,
            )));
        }
        Ok(())
    }

    /// Re-centres the segment on the collection's `centre` (see
    /// [`IvfRabitq::recentre`]).
    pub fn recentre(&mut self, centre: &[f32]) {
        self.index.recentre(centre);
    }

    /// File name within the collection directory.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The segment's inner index, addressed by local ids (row `i` of the
    /// segment; [`Segment::live_entries`] maps rows to global ids).
    pub fn index(&self) -> &IvfRabitq {
        &self.index
    }

    /// Total rows, live and tombstoned.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the segment holds no rows at all.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Live (non-tombstoned) rows.
    pub fn n_live(&self) -> usize {
        self.index.n_live()
    }

    /// Whether `global_id` lives here (present and not tombstoned).
    pub fn contains_live(&self, global_id: u32) -> bool {
        self.lookup
            .get(&global_id)
            .is_some_and(|&local| !self.index.is_deleted(local))
    }

    /// Tombstones `global_id`. Returns whether it was live here.
    ///
    /// Takes `&self`: the inner index's tombstone bitmap is atomic, so a
    /// segment shared behind an `Arc` with concurrent readers (the
    /// [`crate::Snapshot`] read path) can be tombstoned in place.
    pub fn delete(&self, global_id: u32) -> bool {
        match self.lookup.get(&global_id) {
            Some(&local) => self.index.remove(local),
            None => false,
        }
    }

    /// The tombstoned global ids, for the manifest.
    pub fn tombstones(&self) -> Vec<u32> {
        self.ids
            .iter()
            .enumerate()
            .filter(|&(local, _)| self.index.is_deleted(local as u32))
            .map(|(_, &global)| global)
            .collect()
    }

    /// Iterates live `(global id, vector)` rows (used by compaction).
    pub fn live_entries(&self) -> impl Iterator<Item = (u32, &[f32])> {
        self.ids
            .iter()
            .enumerate()
            .filter(|&(local, _)| !self.index.is_deleted(local as u32))
            .map(|(local, &global)| (global, self.index.vector(local as u32)))
    }

    /// Searches the segment on its own — a one-segment collection — through
    /// a reused [`SearchScratch`]: plans the query on this segment, scans
    /// it, and leaves the neighbors in `scratch.neighbors` as **global**
    /// ids with exact (re-ranked) distances, ascending; tombstones are
    /// skipped. The return value is `(n_estimated, n_reranked)`. A
    /// collection plans once and calls [`Segment::scan`] per segment
    /// instead.
    pub fn search_into<R: Rng + ?Sized>(
        &self,
        query: &[f32],
        k: usize,
        nprobe: usize,
        scratch: &mut SearchScratch,
        rng: &mut R,
    ) -> (usize, usize) {
        scratch.begin(k);
        if k == 0 {
            return (0, 0);
        }
        self.index.plan_into(query, scratch, rng);
        let counts = self
            .scan(query, nprobe, scratch, &CancelToken::none())
            .expect("a never-cancelling token cannot cancel");
        scratch.finish();
        counts
    }

    /// Scans the segment under the query plan in `scratch` (built by any
    /// segment of the same collection), pushing **global** ids into the
    /// plan's one top-K. The token is polled at every probed-bucket
    /// boundary; `None` means it fired and the top-K holds partial
    /// results. Returns `(n_estimated, n_reranked)`.
    pub fn scan(
        &self,
        query: &[f32],
        nprobe: usize,
        scratch: &mut SearchScratch,
        cancel: &CancelToken,
    ) -> Option<(usize, usize)> {
        self.index.scan_planned(
            query,
            nprobe,
            RerankStrategy::ErrorBound,
            scratch,
            |local| self.ids[local as usize],
            cancel,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_segment(n: usize, dim: usize) -> (Segment, Vec<f32>) {
        let mut rng = StdRng::seed_from_u64(7);
        let data = rabitq_math::rng::standard_normal_vec(&mut rng, n * dim);
        // Global ids deliberately sparse/offset to exercise the remap.
        let ids: Vec<u32> = (0..n as u32).map(|i| i * 3 + 100).collect();
        let seg = Segment::build(
            "seg-000000.rbq".into(),
            ids,
            &data,
            dim,
            &IvfConfig::new(4),
            RabitqConfig::default(),
            None,
        );
        (seg, data)
    }

    /// `search_into` with a throwaway scratch, returning the neighbors.
    fn search(seg: &Segment, query: &[f32], k: usize, seed: u64) -> Vec<(u32, f32)> {
        let mut scratch = SearchScratch::new();
        seg.search_into(query, k, 64, &mut scratch, &mut StdRng::seed_from_u64(seed));
        scratch.neighbors
    }

    #[test]
    fn search_reports_global_ids_with_exact_distances() {
        let (seg, data) = sample_segment(200, 16);
        let neighbors = search(&seg, &data[50 * 16..51 * 16], 3, 1);
        assert_eq!(neighbors[0].0, 50 * 3 + 100);
        assert!(neighbors[0].1 < 1e-6);
        assert!(neighbors.windows(2).all(|w| w[0].1 <= w[1].1));
    }

    #[test]
    fn deletes_route_through_the_remap_and_round_trip() {
        let (seg, data) = sample_segment(120, 8);
        assert!(seg.contains_live(100)); // local 0
        assert!(seg.delete(100));
        assert!(!seg.delete(100));
        assert!(!seg.delete(99)); // never existed
        assert_eq!(seg.n_live(), 119);
        assert_eq!(seg.tombstones(), vec![100]);

        let mut buf = Vec::new();
        seg.write(&mut buf).unwrap();
        let restored = Segment::read(&mut buf.as_slice(), seg.name().to_string(), None).unwrap();
        assert_eq!(restored.n_live(), 119);
        assert!(!restored.contains_live(100));
        let neighbors = search(&restored, &data[0..8], 5, 2);
        assert!(neighbors.iter().all(|&(id, _)| id != 100));
    }

    #[test]
    fn corruption_anywhere_fails_the_checksum() {
        let (seg, _) = sample_segment(50, 8);
        let mut pristine = Vec::new();
        seg.write(&mut pristine).unwrap();

        // A single flipped bit in the payload is caught.
        let mut flipped = pristine.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x01;
        let err = match Segment::read(&mut flipped.as_slice(), "seg.rbq".into(), None) {
            Err(e) => e,
            Ok(_) => panic!("bit flip went undetected"),
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");

        // So is a truncated file (torn write of the segment itself).
        let mut torn = pristine.clone();
        torn.truncate(torn.len() - 5);
        assert!(Segment::read(&mut torn.as_slice(), "seg.rbq".into(), None).is_err());

        // And the pristine bytes still parse.
        assert!(Segment::read(&mut pristine.as_slice(), "seg.rbq".into(), None).is_ok());
    }

    #[test]
    fn legacy_v1_segments_still_load() {
        let (seg, data) = sample_segment(80, 8);
        // The pre-checksum layout: header, then the payload directly.
        let mut v1 = Vec::new();
        p::write_header(&mut v1, SEGMENT_SECTION_V1).unwrap();
        p::write_u32_slice(&mut v1, &seg.ids).unwrap();
        seg.index.write(&mut v1).unwrap();

        let restored = Segment::read(&mut v1.as_slice(), "seg-legacy.rbq".into(), None).unwrap();
        assert_eq!(restored.len(), 80);
        let neighbors = search(&restored, &data[0..8], 1, 3);
        assert_eq!(neighbors[0].0, 100); // local 0 → global 100
    }

    #[test]
    fn corrupt_length_field_is_invalid_data_not_a_huge_allocation() {
        let mut evil = Vec::new();
        p::write_header(&mut evil, SEGMENT_SECTION).unwrap();
        p::write_u64(&mut evil, 1 << 39).unwrap(); // 512 GiB claimed
        evil.extend_from_slice(&[0u8; 16]); // ...16 bytes present
        let err = match Segment::read(&mut evil.as_slice(), "seg.rbq".into(), None) {
            Err(e) => e,
            Ok(_) => panic!("corrupt length field went undetected"),
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn live_entries_skip_tombstones() {
        let (seg, _) = sample_segment(10, 4);
        seg.delete(103); // local 1
        let ids: Vec<u32> = seg.live_entries().map(|(id, _)| id).collect();
        assert_eq!(ids.len(), 9);
        assert!(!ids.contains(&103));
    }
}
