//! Versioned binary persistence for [`GraphRabitq`] — quantizer (including
//! the sampled rotation), codes, centroid and the full layer graph, so a
//! loaded index answers queries bit-identically to the one that was saved.
//! The rotated centroids and the code popcounts are derived at load.

use crate::index::{rotate_rows, GraphRabitq, GraphRerank};
use rabitq_core::persist::{
    invalid, read_f32_vec, read_header, read_u32_vec, read_u64, read_u8, read_usize,
    write_f32_slice, write_header, write_u32_slice, write_u64, write_u8, write_usize,
};
use rabitq_core::{CodeSet, Rabitq};
use rabitq_hnsw::{Hnsw, HnswConfig, HnswParts};
use std::io::{self, Read, Write};

const SECTION: &str = "graph-rabitq-v2";

/// The previous format, still read: it also persisted the code popcounts.
const SECTION_V1: &str = "graph-rabitq-v1";

impl GraphRabitq {
    /// Serializes the index to `w`.
    pub fn write<W: Write>(&self, w: &mut W) -> io::Result<()> {
        write_header(w, SECTION)?;
        match self.rerank {
            GraphRerank::ErrorBound => write_u8(w, 0)?,
            GraphRerank::Top(n) => {
                write_u8(w, 1)?;
                write_usize(w, n)?;
            }
            GraphRerank::None => write_u8(w, 2)?,
        }
        self.quantizer.write(w)?;
        self.codes.write(w)?;
        write_f32_slice(w, &self.centroids)?;
        write_u32_slice(w, &self.assignments)?;

        let parts = self.graph.to_parts();
        write_usize(w, parts.dim)?;
        write_usize(w, parts.config.m)?;
        write_usize(w, parts.config.ef_construction)?;
        write_u64(w, parts.config.seed)?;
        write_f32_slice(w, &parts.data)?;
        write_u64(w, parts.entry as u64)?;
        write_usize(w, parts.top_layer)?;
        write_usize(w, parts.adjacency.len())?;
        for layers in &parts.adjacency {
            write_usize(w, layers.len())?;
            for nbrs in layers {
                write_u32_slice(w, nbrs)?;
            }
        }
        Ok(())
    }

    /// Deserializes an index written by [`GraphRabitq::write`].
    pub fn read<R: Read>(r: &mut R) -> io::Result<Self> {
        let section = read_header(r)?;
        let v1 = section == SECTION_V1;
        if !v1 && section != SECTION {
            return Err(invalid(format!("expected {SECTION}, found {section}")));
        }
        let rerank = match read_u8(r)? {
            0 => GraphRerank::ErrorBound,
            1 => GraphRerank::Top(read_usize(r)?),
            2 => GraphRerank::None,
            tag => return Err(invalid(format!("unknown rerank tag {tag}"))),
        };
        let quantizer = Rabitq::read(r)?;
        let codes = CodeSet::read(r)?;
        if v1 {
            read_u32_vec(r)?; // the code popcounts
        }
        let centroids = read_f32_vec(r)?;
        let assignments = read_u32_vec(r)?;

        let dim = read_usize(r)?;
        let config = HnswConfig {
            m: read_usize(r)?,
            ef_construction: read_usize(r)?,
            seed: read_u64(r)?,
        };
        let data = read_f32_vec(r)?;
        let entry = read_u64(r)? as u32;
        let top_layer = read_usize(r)?;
        let n_nodes = read_usize(r)?;
        if n_nodes > data.len().max(1) {
            return Err(invalid(format!("implausible node count {n_nodes}")));
        }
        let mut adjacency = Vec::with_capacity(n_nodes);
        for _ in 0..n_nodes {
            let n_layers = read_usize(r)?;
            if n_layers > 64 {
                return Err(invalid(format!("implausible layer count {n_layers}")));
            }
            let mut layers = Vec::with_capacity(n_layers);
            for _ in 0..n_layers {
                layers.push(read_u32_vec(r)?);
            }
            adjacency.push(layers);
        }
        let graph = Hnsw::from_parts(HnswParts {
            dim,
            config,
            data,
            adjacency,
            entry,
            top_layer,
        })
        .map_err(invalid)?;

        if codes.len() != graph.len() {
            return Err(invalid(format!(
                "{} codes for {} graph nodes",
                codes.len(),
                graph.len()
            )));
        }
        if quantizer.dim() != dim || centroids.is_empty() || centroids.len() % dim != 0 {
            return Err(invalid("dimensionality mismatch across sections"));
        }
        let n_centroids = centroids.len() / dim;
        if assignments.len() != graph.len() {
            return Err(invalid(format!(
                "{} assignments for {} graph nodes",
                assignments.len(),
                graph.len()
            )));
        }
        if assignments.iter().any(|&a| a as usize >= n_centroids) {
            return Err(invalid("assignment points past the centroid table"));
        }
        let rotated_centroids = rotate_rows(&quantizer, &centroids, dim);
        Ok(Self {
            graph,
            quantizer,
            codes,
            centroids,
            rotated_centroids,
            assignments,
            rerank,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::GraphRabitqConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn round_trip_preserves_results() {
        let (n, dim) = (300, 32);
        let mut rng = StdRng::seed_from_u64(20);
        let data = rabitq_math::rng::standard_normal_vec(&mut rng, n * dim);
        let index = GraphRabitq::build(&data, dim, GraphRabitqConfig::default());

        let mut buf = Vec::new();
        index.write(&mut buf).unwrap();
        let loaded = GraphRabitq::read(&mut buf.as_slice()).unwrap();

        assert_eq!(loaded.len(), index.len());
        let query = rabitq_math::rng::standard_normal_vec(&mut rng, dim);
        // Same seed → same randomized rounding → identical results.
        let mut r1 = StdRng::seed_from_u64(33);
        let mut r2 = StdRng::seed_from_u64(33);
        let a = index.search(&query, 10, 64, &mut r1);
        let b = loaded.search(&query, 10, 64, &mut r2);
        assert_eq!(a.neighbors, b.neighbors);
        assert_eq!(a.n_estimated, b.n_estimated);
        assert_eq!(a.n_reranked, b.n_reranked);
    }

    #[test]
    fn rejects_wrong_section() {
        let (n, dim) = (50, 16);
        let mut rng = StdRng::seed_from_u64(21);
        let data = rabitq_math::rng::standard_normal_vec(&mut rng, n * dim);
        let index = GraphRabitq::build(&data, dim, GraphRabitqConfig::default());
        let mut buf = Vec::new();
        index.write(&mut buf).unwrap();
        buf[10] ^= 0xFF; // corrupt the section name
        assert!(GraphRabitq::read(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn rejects_truncation() {
        let (n, dim) = (50, 16);
        let mut rng = StdRng::seed_from_u64(22);
        let data = rabitq_math::rng::standard_normal_vec(&mut rng, n * dim);
        let index = GraphRabitq::build(&data, dim, GraphRabitqConfig::default());
        let mut buf = Vec::new();
        index.write(&mut buf).unwrap();
        for cut in [buf.len() / 4, buf.len() / 2, buf.len() - 1] {
            assert!(
                GraphRabitq::read(&mut buf[..cut].to_vec().as_slice()).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }

    #[test]
    fn round_trips_rerank_variants() {
        let (n, dim) = (60, 16);
        let mut rng = StdRng::seed_from_u64(23);
        let data = rabitq_math::rng::standard_normal_vec(&mut rng, n * dim);
        for rerank in [
            GraphRerank::ErrorBound,
            GraphRerank::Top(7),
            GraphRerank::None,
        ] {
            let cfg = GraphRabitqConfig {
                rerank,
                ..GraphRabitqConfig::default()
            };
            let index = GraphRabitq::build(&data, dim, cfg);
            let mut buf = Vec::new();
            index.write(&mut buf).unwrap();
            let loaded = GraphRabitq::read(&mut buf.as_slice()).unwrap();
            assert_eq!(loaded.rerank, rerank);
        }
    }
}
