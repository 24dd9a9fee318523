//! # sygraph-algos — graph algorithms on the SYgraph primitives
//!
//! The four algorithms of the paper's evaluation — BFS, SSSP
//! (Bellman-Ford), CC (label propagation) and BC (Brandes) — implemented
//! exactly in the paper's superstep style (Listing 1), plus the
//! extensions the paper cites but does not use: direction-optimizing BFS
//! (Beamer), Δ-stepping SSSP and PageRank. Host reference
//! implementations in [`mod@reference`] back every device algorithm's tests.

pub mod bc;
pub mod bfs;
pub mod catalogue;
pub mod cc;
pub mod common;
pub mod delta;
pub mod determinism;
pub mod dobfs;
pub mod kcore;
pub mod multi;
pub mod pagerank;
pub mod partitioned;
pub mod reference;
pub mod sssp;
pub mod triangles;

pub use catalogue::{Algo, Args, Output, Values};
pub use common::AlgoResult;
pub use determinism::Determinism;
