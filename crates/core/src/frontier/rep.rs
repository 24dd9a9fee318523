//! Frontier representation descriptors.
//!
//! The two-layer bitmap (§4.3) is duplicate-free and cache-friendly, but
//! its compaction kernel scans `⌈n/b²⌉` second-layer words every superstep
//! regardless of how many vertices are active — on high-diameter road
//! graphs that fixed scan dominates thousands of near-empty supersteps.
//! Gunrock keeps multiple frontier layouts behind one object and
//! GraphBLAST switches between sparse and dense masks per iteration; the
//! types here let our frontiers do the same: a frontier *representation*
//! is how the active set is handed to `advance` — as bitmap words (dense)
//! or as an explicit, duplicate-free item list (sparse).

use sygraph_sim::DeviceBuffer;

/// Which representation a frontier currently presents to the operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepKind {
    /// Bitmap words; `advance` walks (compacted) words.
    Dense,
    /// Explicit item list; `advance` walks list entries — no per-word
    /// scan, cost proportional to the frontier population.
    Sparse,
}

impl RepKind {
    /// The representation a plan's `sparse` flag names.
    pub fn of(sparse: bool) -> Self {
        if sparse {
            RepKind::Sparse
        } else {
            RepKind::Dense
        }
    }
}

/// A borrowed view of a frontier's sparse (item-list) representation.
///
/// The list is duplicate-free and mirrors the bitmap exactly — every set
/// bit appears once in `items[..len]`. Frontiers only hand out a view
/// while that invariant holds (no removals or overflow since the list was
/// last rebuilt), so consumers may skip per-item membership checks.
pub struct SparseView<'a> {
    /// Active vertex ids, `len` valid entries.
    pub items: &'a DeviceBuffer<u32>,
    /// Number of valid entries (read back from the device counter — the
    /// same single host sync the dense path spends on its compaction
    /// count).
    pub len: usize,
}
