//! Minimal flag parser shared by every experiment binary.
//!
//! Kept dependency-free on purpose: `--flag value` pairs only, with typed
//! accessors and defaults chosen per binary.

use rabitq_data::registry::PaperDataset;
use std::collections::HashMap;

/// Parsed command-line arguments.
#[derive(Clone, Debug, Default)]
pub struct Args {
    values: HashMap<String, String>,
}

impl Args {
    /// Parses `--key value` pairs from `std::env::args()`.
    ///
    /// # Panics
    /// Panics (with a usage hint) on a dangling `--key` or a token that is
    /// not part of a pair.
    pub fn parse() -> Self {
        Self::from_tokens(std::env::args().skip(1))
    }

    /// Parses from an explicit token stream (testable).
    pub fn from_tokens<I: IntoIterator<Item = String>>(tokens: I) -> Self {
        let mut values = HashMap::new();
        let mut iter = tokens.into_iter();
        while let Some(tok) = iter.next() {
            let key = tok
                .strip_prefix("--")
                .unwrap_or_else(|| panic!("expected --flag, got {tok:?}"));
            let val = iter
                .next()
                .unwrap_or_else(|| panic!("flag --{key} needs a value"));
            values.insert(key.to_string(), val);
        }
        Self { values }
    }

    /// A string flag with a default.
    pub fn str(&self, key: &str, default: &str) -> String {
        self.values
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// A `usize` flag with a default.
    pub fn usize(&self, key: &str, default: usize) -> usize {
        self.values
            .get(key)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{key} must be an integer, got {v:?}"))
            })
            .unwrap_or(default)
    }

    /// A `u64` flag with a default.
    pub fn u64(&self, key: &str, default: u64) -> u64 {
        self.values
            .get(key)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{key} must be an integer, got {v:?}"))
            })
            .unwrap_or(default)
    }

    /// An `f64` flag with a default.
    pub fn f64(&self, key: &str, default: f64) -> f64 {
        self.values
            .get(key)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{key} must be a number, got {v:?}"))
            })
            .unwrap_or(default)
    }

    /// The `--datasets` flag: comma-separated paper-dataset names, or the
    /// provided default list.
    pub fn datasets(&self, default: &[PaperDataset]) -> Vec<PaperDataset> {
        match self.values.get("datasets") {
            None => default.to_vec(),
            Some(spec) if spec == "all" => PaperDataset::ALL.to_vec(),
            Some(spec) => spec
                .split(',')
                .map(|name| {
                    PaperDataset::parse(name).unwrap_or_else(|| panic!("unknown dataset {name:?}"))
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Args {
        Args::from_tokens(s.iter().map(|t| t.to_string()))
    }

    #[test]
    fn parses_typed_flags_with_defaults() {
        let a = args(&["--n", "5000", "--seed", "9"]);
        assert_eq!(a.usize("n", 100), 5000);
        assert_eq!(a.u64("seed", 1), 9);
        assert_eq!(a.usize("queries", 42), 42);
    }

    #[test]
    fn dataset_list_parses_names_and_all() {
        let a = args(&["--datasets", "sift,gist"]);
        let ds = a.datasets(&[PaperDataset::Msong]);
        assert_eq!(ds, vec![PaperDataset::Sift, PaperDataset::Gist]);
        let all = args(&["--datasets", "all"]).datasets(&[]);
        assert_eq!(all.len(), 6);
        let def = args(&[]).datasets(&[PaperDataset::Deep]);
        assert_eq!(def, vec![PaperDataset::Deep]);
    }

    #[test]
    #[should_panic(expected = "needs a value")]
    fn dangling_flag_panics() {
        args(&["--n"]);
    }

    #[test]
    #[should_panic(expected = "unknown dataset")]
    fn bad_dataset_panics() {
        args(&["--datasets", "imagenet"]).datasets(&[]);
    }
}
