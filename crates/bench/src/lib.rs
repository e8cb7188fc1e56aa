//! # minnet-bench
//!
//! Regenerates every evaluation figure of the paper (§5, Figs. 16–20)
//! plus the extension studies listed in `DESIGN.md`. [`figures`] defines
//! one experiment bundle per figure; the `figures` binary sweeps them
//! and writes paper-style series (text + CSV) under `results/`.
//! Performance is measured elsewhere, by the `benchmark/` package.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;

pub use figures::{all_figures, figure_by_id, FigureDef};
