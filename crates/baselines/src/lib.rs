//! # sygraph-baselines — comparator frameworks on the shared substrate
//!
//! The paper's evaluation compares SYgraph against Gunrock, Tigr and
//! SEP-Graph — CUDA frameworks distinguished by their *frontier
//! management strategies* (Table 1). This crate re-implements those
//! strategies on the same simulated device so the comparison isolates
//! exactly the variable the paper studies:
//!
//! | framework | frontier | pre-proc | post-proc |
//! |---|---|---|---|
//! | [`SygraphFramework`] | two-layer bitmap | no | no |
//! | [`GunrockLike`] | append vector | no | dedup filter pass |
//! | [`TigrLike`] | none (topology-driven over UDT) | UDT transform | level sweeps |
//! | [`SepGraphLike`] | vector ⇄ bitmap hybrid, push/pull | stats + CSC | bitmap round-trips |
//!
//! Every framework is validated against the host references in
//! `sygraph-algos`, so performance differences cannot hide behind wrong
//! answers.

pub mod gunrock;
pub mod harness;
pub mod sepgraph;
pub mod sygraph_fw;
pub mod tigr;
pub mod vecops;

pub use gunrock::GunrockLike;
pub use harness::{validate_against_reference, AlgoKind, Framework, RunRecord};
pub use sepgraph::SepGraphLike;
pub use sygraph_fw::SygraphFramework;
pub use tigr::TigrLike;

use sygraph_core::inspector::OptConfig;

/// All four frameworks of the comparison figures, in legend order.
pub fn all_frameworks() -> Vec<Box<dyn Framework>> {
    vec![
        Box::new(SygraphFramework::new(OptConfig::all())),
        Box::new(GunrockLike::new()),
        Box::new(TigrLike::new()),
        Box::new(SepGraphLike::new()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legend_order() {
        let fws = all_frameworks();
        let names: Vec<&str> = fws.iter().map(|f| f.name()).collect();
        assert_eq!(names, vec!["SYgraph", "Gunrock", "Tigr", "SEP-Graph"]);
    }
}
