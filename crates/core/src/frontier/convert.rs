//! Device-side conversion kernels from the dense (bitmap) to the sparse
//! (item-list) frontier representation. The other direction needs none:
//! every layout keeps its bitmap current.
//!
//! They mirror the §4.3 compaction idiom: one thread per source element,
//! no host round-trips beyond the counter reads the callers already do.
//! Dense→sparse is the kernel `frontier_compact` runs over the second
//! layer ([`append_set_bits`]), here over the first.

use sygraph_sim::{DeviceBuffer, Queue, MAX_SUBGROUP};

use crate::frontier::word::{locate, slab_mask, Word};
use crate::frontier::ClearUnits;

/// Appends the id `i * W::BITS + b` of every set bit `b` of every
/// `src[i]` to `out`, one lane per source word — the kernel under both the
/// §4.3 compaction (`src` = second layer, ids = non-zero first-layer
/// words) and the dense → sparse conversion (`src` = first layer, ids =
/// vertices). A subgroup takes its slots with one
/// [`SubgroupCtx::reserve`](sygraph_sim::SubgroupCtx::reserve) on `len`,
/// each lane asking for its word's population count, then the lanes walk
/// their bits together. Appends past `out`'s capacity are dropped, and
/// one lane of a subgroup that dropped any raises `overflow` (when given).
pub(crate) fn append_set_bits<W: Word>(
    q: &Queue,
    name: &'static str,
    src: &DeviceBuffer<W>,
    out: &DeviceBuffer<u32>,
    len: &DeviceBuffer<u32>,
    overflow: Option<&DeviceBuffer<u32>>,
) {
    let n = src.len();
    let cap = out.len();
    let sgw = q.profile().preferred_subgroup as usize;
    q.parallel_for_subgroups(name, n.div_ceil(sgw), |sg, unit| {
        let first = unit * sgw;
        let mask = slab_mask(sgw, first, n);
        let mut rest = [W::ZERO; MAX_SUBGROUP];
        sg.load(
            src,
            mask,
            |lane| first + lane as usize,
            |lane, w| rest[lane as usize] = w,
        );
        let mut slot = [0u32; MAX_SUBGROUP];
        let count = |lane: u32| rest[lane as usize].count_ones();
        let base = sg.reserve(len, 0, mask, count, &mut slot);
        if let Some(flag) = overflow {
            let spills =
                mask & sg.ballot(|lane| (base + slot[lane as usize] + count(lane)) as usize > cap);
            if spills != 0 {
                let leader = 1u64 << spills.trailing_zeros();
                sg.atomic_or(flag, leader, |_| (0, 1), |_, _| {});
            }
        }
        for k in 0.. {
            let walking = mask & sg.ballot(|lane| !rest[lane as usize].is_zero());
            if walking == 0 {
                break;
            }
            let at = |lane: u32| (base + slot[lane as usize] + k) as usize;
            let fits = walking & sg.ballot(|lane| at(lane) < cap);
            sg.store(out, fits, |lane| {
                let id = (first as u32 + lane) * W::BITS + rest[lane as usize].trailing_zeros();
                (at(lane), id)
            });
            for w in &mut rest[..sgw] {
                if !w.is_zero() {
                    *w = w.and(W::one_bit(w.trailing_zeros()).not());
                }
            }
            sg.compute(2);
        }
    });
}

/// Dense → sparse ("frontier_sparsify"): appends the vertex id of every
/// set bit in `words` to `items` through [`append_set_bits`] on the `len`
/// counter (reset here first). Appends past `items`' capacity are dropped
/// and `overflow` is set to 1 instead — the caller must treat the list as
/// absent when the flag comes back set. Tail bits beyond the vertex range
/// never appear because the bitmap invariant keeps them clear.
pub fn sparsify<W: Word>(
    q: &Queue,
    words: &DeviceBuffer<W>,
    items: &DeviceBuffer<u32>,
    len: &DeviceBuffer<u32>,
    overflow: &DeviceBuffer<u32>,
) {
    len.store(0, 0);
    append_set_bits(q, "frontier_sparsify", words, items, len, Some(overflow));
}

/// Sparse lazy clear ("frontier_sparse_lazy_clear"): empties a frontier
/// whose item list is exact in O(population). Lane `i < len` zeroes entry
/// `i`'s first-layer word — an atomic AND, because entries sharing a word
/// zero it from several lanes, and what conflicts that leaves are genuine
/// same-word pairs. The second layer, when there is one, is zeroed whole by
/// the `layer2.len()` lanes past the entries with plain stores: every
/// non-zero first-layer word has an entry here, so all of them are being
/// zeroed by these same units.
pub(crate) fn clear_listed<'a, W: Word>(
    items: &'a DeviceBuffer<u32>,
    len: usize,
    words: &'a DeviceBuffer<W>,
    layer2: Option<&'a DeviceBuffer<W>>,
) -> ClearUnits<'a> {
    let lanes = len + layer2.map_or(0, |l2| l2.len());
    ClearUnits::new("frontier_sparse_lazy_clear", lanes, move |sg, first| {
        let sgw = sg.width() as usize;
        let slab = slab_mask(sgw, first, lanes);
        let entries = slab_mask(sgw, first, len.max(first));
        if entries != 0 {
            let mut at = [0usize; MAX_SUBGROUP];
            sg.load(
                items,
                entries,
                |lane| first + lane as usize,
                |lane, v| at[lane as usize] = locate::<W>(v).0,
            );
            sg.atomic_and(
                words,
                entries,
                |lane| (at[lane as usize], W::ZERO),
                |_, _| {},
            );
        }
        let past = slab & !entries;
        if let (Some(layer2), true) = (layer2, past != 0) {
            sg.store(layer2, past, |lane| (first + lane as usize - len, W::ZERO));
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sygraph_sim::{Device, DeviceProfile};

    fn queue() -> Queue {
        Queue::new(Device::new(DeviceProfile::host_test()))
    }

    #[test]
    fn sparsify_collects_all_set_bits() {
        let q = queue();
        let words = q.malloc_device::<u32>(4).unwrap();
        words.store(0, 0b1010);
        words.store(3, 1 << 31);
        let items = q.malloc_device::<u32>(16).unwrap();
        let len = q.malloc_device::<u32>(1).unwrap();
        let overflow = q.malloc_device::<u32>(1).unwrap();
        overflow.store(0, 0);
        sparsify::<u32>(&q, &words, &items, &len, &overflow);
        assert_eq!(overflow.load(0), 0);
        let n = len.load(0) as usize;
        let mut got = items.to_vec()[..n].to_vec();
        got.sort_unstable();
        assert_eq!(got, vec![1, 3, 127]);
    }

    #[test]
    fn sparsify_flags_overflow_without_corruption() {
        let q = queue();
        let words = q.malloc_device::<u32>(1).unwrap();
        words.store(0, 0xFF); // 8 set bits
        let items = q.malloc_device::<u32>(4).unwrap();
        let len = q.malloc_device::<u32>(1).unwrap();
        let overflow = q.malloc_device::<u32>(1).unwrap();
        overflow.store(0, 0);
        sparsify::<u32>(&q, &words, &items, &len, &overflow);
        assert_eq!(overflow.load(0), 1);
    }
}
