//! Shared machinery: frontier factories, run metrics and word-width
//! dispatch.

use serde::{Deserialize, Serialize};
use sygraph_core::frontier::{
    BitmapFrontier, BitmapLike, HybridFrontier, SparseFrontier, TwoLayerFrontier, Word,
};
use sygraph_core::inspector::{OptConfig, Representation};
use sygraph_sim::{Queue, SimResult};

/// Result of one algorithm run: per-vertex values plus run metadata.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AlgoResult<T> {
    /// Per-vertex output (distances, labels, centrality scores...).
    pub values: Vec<T>,
    /// Supersteps executed.
    pub iterations: u32,
    /// Modelled device time of the run, in milliseconds.
    pub sim_ms: f64,
}

/// Creates a frontier of the layout selected by `opts`: the
/// representation policy picks the family (forced-sparse list, hybrid for
/// auto-switching, or dense), and `two_layer` picks between the 2LB
/// layout and the plain §4.1 bitmap used as Figure 7 baseline. Sparse and
/// auto build on the two-layer machinery (their conversion kernels need
/// the counted compaction), so with `two_layer` off they degrade to the
/// plain dense bitmap.
pub fn make_frontier<W: Word>(
    q: &Queue,
    n: usize,
    opts: &OptConfig,
) -> SimResult<Box<dyn BitmapLike<W>>> {
    if !opts.two_layer {
        return Ok(Box::new(BitmapFrontier::<W>::new(q, n)?));
    }
    match opts.representation {
        Representation::Dense => Ok(Box::new(TwoLayerFrontier::<W>::new(q, n)?)),
        Representation::Sparse => Ok(Box::new(SparseFrontier::<W>::new(q, n)?)),
        Representation::Auto => Ok(Box::new(HybridFrontier::<W>::new(q, n)?)),
    }
}

/// Derives the tuning for `$q`'s device and calls `$impl_fn::<u32, ..>`
/// or `::<u64, ..>` on the inspector-selected word width, passing
/// `&tuning` last (the MSI optimization picks 32-bit words on
/// NVIDIA/Intel and 64-bit on AMD; with MSI off the word is 64-bit).
/// Generic arguments after the word type go in a turbofish:
/// `run_impl::<G>(q, g)`.
#[macro_export]
macro_rules! dispatch_by_word {
    ($q:expr, $opts:expr, $n:expr,
     $impl_fn:ident $(::<$($generic:ty),+>)? ( $($arg:expr),* $(,)? )) => {{
        let tuning = sygraph_core::inspector::inspect($q.profile(), $opts, $n);
        match tuning.word_bits {
            32 => $impl_fn::<u32 $($(, $generic)+)?>($($arg,)* &tuning),
            _ => $impl_fn::<u64 $($(, $generic)+)?>($($arg,)* &tuning),
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;
    use sygraph_core::inspector::Tuning;
    use sygraph_sim::{Device, DeviceProfile};

    #[test]
    fn factory_respects_layout_flag() {
        let q = Queue::new(Device::new(DeviceProfile::host_test()));
        let two = make_frontier::<u32>(&q, 100, &OptConfig::all()).unwrap();
        let flat = make_frontier::<u32>(&q, 100, &OptConfig::baseline()).unwrap();
        assert!(two.compact(&q).is_some(), "2LB layout compacts");
        assert!(flat.compact(&q).is_none(), "plain bitmap does not");
        two.insert_host(4);
        assert_eq!(two.count(&q), 1);
        assert_eq!(flat.count(&q), 0);
    }

    #[test]
    fn dispatch_picks_width_by_vendor() {
        fn bits<W: Word>(_: &Tuning) -> u32 {
            W::BITS
        }
        let qa = Queue::new(Device::new(DeviceProfile::v100s()));
        assert_eq!(dispatch_by_word!(qa, &OptConfig::all(), 1000, bits()), 32);
        let qb = Queue::new(Device::new(DeviceProfile::mi100()));
        assert_eq!(dispatch_by_word!(qb, &OptConfig::all(), 1000, bits()), 64);
    }
}
