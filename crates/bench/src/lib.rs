//! # rabitq-bench — experiment harness
//!
//! One binary per table/figure of the paper's evaluation (see `DESIGN.md`
//! §4 for the full index). Every binary accepts the flags parsed by
//! [`cli::Args`] (`--n`, `--queries`, `--k`, `--clusters`, `--seed`,
//! `--datasets`, `--samples`) so experiments scale from smoke tests to the
//! paper's 10⁶ regime. Results print as aligned TSV-ish tables recorded in
//! `EXPERIMENTS.md`.

pub mod cli;
pub mod table;
pub mod testbed;

pub use cli::Args;
pub use table::Table;
pub use testbed::Testbed;
