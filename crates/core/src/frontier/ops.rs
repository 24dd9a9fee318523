//! Frontier set operators (§4.1 "Frontiers Operators", Figure 3).
//!
//! With bitmap layouts these run as embarrassingly parallel bitwise
//! kernels: intersection is AND, union is OR, symmetric difference is XOR
//! and subtraction is AND-NOT, one GPU thread per bitmap word.

use sygraph_sim::{Queue, MAX_SUBGROUP};

use crate::frontier::word::{slab_mask, Word};
use crate::frontier::{BitmapLike, TwoLayerFrontier};

/// The bitwise combiner applied word-by-word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetOp {
    /// `a ∩ b` — the paper's **intersection** (segmented intersection in
    /// Figure 3 when applied to neighborhood frontiers).
    Intersection,
    /// `a ∪ b` — **union** (e.g. graph machine-learning frontiers).
    Union,
    /// `a Δ b` — **symmetric difference** via XOR.
    SymmetricDifference,
    /// `a \ b` — **subtraction** via AND-NOT (data cleaning).
    Subtraction,
}

impl SetOp {
    fn apply<W: Word>(self, a: W, b: W) -> W {
        match self {
            SetOp::Intersection => a.and(b),
            SetOp::Union => a.or(b),
            SetOp::SymmetricDifference => a.xor(b),
            SetOp::Subtraction => a.and(b.not()),
        }
    }

    fn kernel_name(self) -> &'static str {
        match self {
            SetOp::Intersection => "frontier_intersect",
            SetOp::Union => "frontier_union",
            SetOp::SymmetricDifference => "frontier_symdiff",
            SetOp::Subtraction => "frontier_subtract",
        }
    }
}

/// Applies `op` word-wise: `out = a <op> b`. All three frontiers must
/// cover the same vertex range.
///
/// Operands may mix representations freely: every layout keeps its word
/// array authoritative, so the sparse side needs no materialization pass.
/// Only the *output* needs fixing up — the word-wise stores bypass its
/// insert path, so [`BitmapLike::rebuild_from_words`] runs at the end
/// (layer-2 rebuild for the two-layer layouts, a stale-list mark for the
/// sparse ones; a no-op for plain bitmaps).
pub fn apply<W: Word, A, B, O>(q: &Queue, op: SetOp, a: &A, b: &B, out: &O)
where
    A: BitmapLike<W>,
    B: BitmapLike<W>,
    O: BitmapLike<W>,
{
    assert_eq!(a.num_words(), b.num_words());
    assert_eq!(a.num_words(), out.num_words());
    let aw = a.words();
    let bw = b.words();
    let ow = out.words();
    q.parallel_for(op.kernel_name(), a.num_words(), |lane, i| {
        let x = lane.load(aw, i);
        let y = lane.load(bw, i);
        lane.store(ow, i, op.apply(x, y));
        lane.compute(1);
    });
    out.rebuild_from_words(q);
}

/// `out = a ∩ b`.
pub fn intersection<W: Word, A: BitmapLike<W>, B: BitmapLike<W>, O: BitmapLike<W>>(
    q: &Queue,
    a: &A,
    b: &B,
    out: &O,
) {
    apply(q, SetOp::Intersection, a, b, out);
}

/// `out = a ∪ b`.
pub fn union<W: Word, A: BitmapLike<W>, B: BitmapLike<W>, O: BitmapLike<W>>(
    q: &Queue,
    a: &A,
    b: &B,
    out: &O,
) {
    apply(q, SetOp::Union, a, b, out);
}

/// `out = a Δ b` (XOR).
pub fn symmetric_difference<W: Word, A: BitmapLike<W>, B: BitmapLike<W>, O: BitmapLike<W>>(
    q: &Queue,
    a: &A,
    b: &B,
    out: &O,
) {
    apply(q, SetOp::SymmetricDifference, a, b, out);
}

/// `out = a \ b`.
pub fn subtraction<W: Word, A: BitmapLike<W>, B: BitmapLike<W>, O: BitmapLike<W>>(
    q: &Queue,
    a: &A,
    b: &B,
    out: &O,
) {
    apply(q, SetOp::Subtraction, a, b, out);
}

/// Rebuilds a two-layer frontier's second layer from its first layer
/// (needed after word-wise writes bypass the insert path). A subgroup's
/// ballot of "word non-zero" over `W::BITS` consecutive first-layer words
/// *is* their second-layer word, so every second-layer word is written
/// once with a plain store: no clearing pass and no atomic.
pub fn rebuild_layer2<W: Word>(q: &Queue, f: &TwoLayerFrontier<W>) {
    let (words, layer2) = (f.words(), f.layer2());
    let n = f.num_words();
    let sgw = q.profile().preferred_subgroup as usize;
    // Second-layer words per subgroup: one, balloted in `W::BITS / sg`
    // passes — or several when the subgroup is wider than a word.
    let per = (sgw / W::BITS as usize).max(1);
    let span = per * W::BITS as usize;
    q.parallel_for_subgroups("layer2_rebuild", layer2.len().div_ceil(per), |sg, unit| {
        let mut marks = 0u64;
        for (pass, base) in (unit * span..n.min((unit + 1) * span))
            .step_by(sgw)
            .enumerate()
        {
            let mask = slab_mask(sgw, base, n);
            let mut nonzero = [false; MAX_SUBGROUP];
            sg.load(
                words,
                mask,
                |lane| base + lane as usize,
                |lane, w| nonzero[lane as usize] = !w.is_zero(),
            );
            marks |= sg.ballot(|lane| nonzero[lane as usize]) << (pass * sgw);
        }
        let l2_first = unit * per;
        let out = slab_mask(per, l2_first, layer2.len());
        sg.store(layer2, out, |lane| {
            let mark = W::from_u64(marks >> (lane * W::BITS));
            (l2_first + lane as usize, mark)
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontier::{BitmapFrontier, Frontier};
    use std::collections::BTreeSet;
    use sygraph_sim::{Device, DeviceProfile};

    fn queue() -> Queue {
        Queue::new(Device::new(DeviceProfile::host_test()))
    }

    fn setup(
        q: &Queue,
        a: &[u32],
        b: &[u32],
    ) -> (
        BitmapFrontier<u32>,
        BitmapFrontier<u32>,
        BitmapFrontier<u32>,
    ) {
        let n = 200;
        let fa = BitmapFrontier::<u32>::new(q, n).unwrap();
        let fb = BitmapFrontier::<u32>::new(q, n).unwrap();
        let fo = BitmapFrontier::<u32>::new(q, n).unwrap();
        for &v in a {
            fa.insert_host(v);
        }
        for &v in b {
            fb.insert_host(v);
        }
        (fa, fb, fo)
    }

    fn reference(op: SetOp, a: &[u32], b: &[u32]) -> Vec<u32> {
        let sa: BTreeSet<u32> = a.iter().copied().collect();
        let sb: BTreeSet<u32> = b.iter().copied().collect();
        match op {
            SetOp::Intersection => sa.intersection(&sb).copied().collect(),
            SetOp::Union => sa.union(&sb).copied().collect(),
            SetOp::SymmetricDifference => sa.symmetric_difference(&sb).copied().collect(),
            SetOp::Subtraction => sa.difference(&sb).copied().collect(),
        }
    }

    #[test]
    fn all_ops_match_set_reference() {
        let q = queue();
        let a = [1u32, 5, 64, 65, 150];
        let b = [5u32, 64, 99, 150, 151];
        for op in [
            SetOp::Intersection,
            SetOp::Union,
            SetOp::SymmetricDifference,
            SetOp::Subtraction,
        ] {
            let (fa, fb, fo) = setup(&q, &a, &b);
            apply(&q, op, &fa, &fb, &fo);
            assert_eq!(fo.to_sorted_vec(), reference(op, &a, &b), "{op:?}");
        }
    }

    #[test]
    fn two_layer_output_with_rebuild() {
        let q = queue();
        let n = 500;
        let fa = TwoLayerFrontier::<u32>::new(&q, n).unwrap();
        let fb = TwoLayerFrontier::<u32>::new(&q, n).unwrap();
        let fo = TwoLayerFrontier::<u32>::new(&q, n).unwrap();
        for v in [3u32, 100, 301] {
            fa.insert_host(v);
        }
        for v in [100u32, 301, 400] {
            fb.insert_host(v);
        }
        union(&q, &fa, &fb, &fo);
        rebuild_layer2(&q, &fo);
        fo.check_invariant().unwrap();
        assert_eq!(fo.to_sorted_vec(), vec![3, 100, 301, 400]);
        let (nz, _) = fo.compact(&q).unwrap();
        assert_eq!(nz, 4, "words 0, 3, 9, 12");
    }

    #[test]
    fn mixed_representation_operands_and_output() {
        let q = queue();
        let n = 500;
        // Sparse ∪ two-layer → hybrid: the sparse operand's words are read
        // directly (no materialization kernel), and the hybrid output
        // comes back with a valid layer2 and a stale list that the next
        // sparse adoption rebuilds.
        let fa = crate::frontier::SparseFrontier::<u32>::new(&q, n).unwrap();
        let fb = TwoLayerFrontier::<u32>::new(&q, n).unwrap();
        let fo = crate::frontier::HybridFrontier::<u32>::new(&q, n).unwrap();
        for v in [3u32, 100, 301] {
            fa.insert_host(v);
        }
        for v in [100u32, 301, 400] {
            fb.insert_host(v);
        }
        union(&q, &fa, &fb, &fo);
        assert_eq!(fo.to_sorted_vec(), vec![3, 100, 301, 400]);
        assert_eq!(fo.count(&q), 4);
        // layer2 was rebuilt: the counted compaction sees all four words.
        let (nz, _) = fo.compact(&q).unwrap();
        assert_eq!(nz, 4);
        // The word-wise stores bypassed the list: it must not be trusted
        // until re-adopted, and re-adoption recovers the exact contents.
        assert!(fo.sparse_view(&q).is_none());
        assert_eq!(
            fo.adopt_rep(&q, crate::frontier::RepKind::Sparse),
            crate::frontier::RepKind::Sparse
        );
        assert_eq!(fo.sparse_view(&q).unwrap().len, 4);

        // Sparse output: the stale mark applies there too.
        let fs = crate::frontier::SparseFrontier::<u32>::new(&q, n).unwrap();
        subtraction(&q, &fb, &fa, &fs);
        assert_eq!(fs.to_sorted_vec(), vec![400]);
        assert!(fs.sparse_view(&q).is_none(), "list stale after set op");
        fs.adopt_rep(&q, crate::frontier::RepKind::Sparse);
        assert_eq!(fs.sparse_view(&q).unwrap().len, 1);
    }

    #[test]
    fn intersection_of_disjoint_is_empty() {
        let q = queue();
        let (fa, fb, fo) = setup(&q, &[0, 1, 2], &[100, 101]);
        intersection(&q, &fa, &fb, &fo);
        assert!(fo.is_empty(&q));
    }
}
