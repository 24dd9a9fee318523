//! The `filter` primitive (§3.1): removes frontier elements failing a
//! predicate, either in place or into a new frontier. Implemented with a
//! SYCL `range` kernel (the paper leaves blocking to the compiler for
//! filter/compute, §3.3).

use sygraph_sim::{Event, ItemCtx, Queue};

use crate::frontier::word::{locate, Word};
use crate::frontier::BitmapLike;
use crate::operators::no_launch;
use crate::types::VertexId;

/// The filter functor: `(lane, vertex) -> bool` — `true` keeps the vertex,
/// matching the paper's `Functor(id) -> Bool`.
pub trait FilterFunctor: Fn(&mut ItemCtx<'_>, VertexId) -> bool + Sync {}
impl<F> FilterFunctor for F where F: Fn(&mut ItemCtx<'_>, VertexId) -> bool + Sync {}

/// `filter::inplace(G, Frontier, Functor)`: removes elements failing
/// `functor` from `frontier`.
///
/// When the frontier presents a sparse view, the kernel runs over the
/// item list — population-proportional instead of capacity-proportional,
/// the same asymptotic win the sparse advance gets. Removals go through
/// [`BitmapLike::remove_lane`] either way, so the bitmap stays the source
/// of truth in both representations.
pub fn inplace<W: Word>(
    q: &Queue,
    frontier: &dyn BitmapLike<W>,
    functor: impl FilterFunctor,
) -> Event {
    if let Some(view) = frontier.sparse_view(q) {
        if view.len == 0 {
            return no_launch(q);
        }
        let items = view.items;
        return q.parallel_for("filter_inplace_sparse", view.len, |lane, i| {
            let v = lane.load(items, i);
            lane.compute(1);
            if !functor(lane, v) {
                frontier.remove_lane(lane, v);
            }
        });
    }
    let words = frontier.words();
    q.parallel_for("filter_inplace", frontier.capacity(), |lane, v| {
        let (wi, b) = locate::<W>(v as u32);
        // Atomic read: other lanes remove bits from this same word via
        // fetch_and in this launch.
        let w = lane.load_atomic(words, wi);
        if w.test_bit(b) {
            lane.compute(1);
            if !functor(lane, v as u32) {
                frontier.remove_lane(lane, v as u32);
            }
        }
    })
}

/// `filter::external(G, In, Out, Functor)`: copies elements of `input`
/// passing `functor` into `output` (which is cleared by the caller).
///
/// A sparse input is scanned through its item list
/// ("filter_external_sparse"); insertions use the output's own insert
/// path, so a sparse output keeps its list exact.
pub fn external<W: Word>(
    q: &Queue,
    input: &dyn BitmapLike<W>,
    output: &dyn BitmapLike<W>,
    functor: impl FilterFunctor,
) -> Event {
    if let Some(view) = input.sparse_view(q) {
        if view.len == 0 {
            return no_launch(q);
        }
        let items = view.items;
        return q.parallel_for("filter_external_sparse", view.len, |lane, i| {
            let v = lane.load(items, i);
            lane.compute(1);
            if functor(lane, v) {
                output.insert_lane(lane, v);
            }
        });
    }
    let words = input.words();
    q.parallel_for("filter_external", input.capacity(), |lane, v| {
        let (wi, b) = locate::<W>(v as u32);
        let w = lane.load(words, wi);
        if w.test_bit(b) {
            lane.compute(1);
            if functor(lane, v as u32) {
                output.insert_lane(lane, v as u32);
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontier::{Frontier, RepKind, SparseFrontier, TwoLayerFrontier};
    use sygraph_sim::{Device, DeviceProfile};

    fn queue() -> Queue {
        Queue::new(Device::new(DeviceProfile::host_test()))
    }

    #[test]
    fn inplace_removes_failures() {
        let q = queue();
        let f = TwoLayerFrontier::<u32>::new(&q, 300).unwrap();
        for v in 0..300 {
            f.insert_host(v);
        }
        inplace(&q, &f, |_l, v| v % 3 == 0);
        assert_eq!(f.count(&q), 100);
        f.check_invariant().unwrap();
        assert_eq!(f.to_sorted_vec(), (0..300).step_by(3).collect::<Vec<u32>>());
    }

    #[test]
    fn inplace_clearing_everything_resets_layer2() {
        let q = queue();
        let f = TwoLayerFrontier::<u32>::new(&q, 128).unwrap();
        f.insert_host(5);
        f.insert_host(100);
        inplace(&q, &f, |_l, _v| false);
        assert!(f.is_empty(&q));
        f.check_invariant().unwrap();
        let (nz, _) = f.compact(&q).unwrap();
        assert_eq!(nz, 0);
    }

    #[test]
    fn external_copies_passers() {
        let q = queue();
        let input = TwoLayerFrontier::<u32>::new(&q, 200).unwrap();
        let output = TwoLayerFrontier::<u32>::new(&q, 200).unwrap();
        for v in [1u32, 50, 51, 150] {
            input.insert_host(v);
        }
        external(&q, &input, &output, |_l, v| v >= 50);
        assert_eq!(output.to_sorted_vec(), vec![50, 51, 150]);
        // input untouched
        assert_eq!(input.count(&q), 4);
        output.check_invariant().unwrap();
    }

    #[test]
    fn sparse_inplace_scans_only_the_list() {
        let q = queue();
        let f = SparseFrontier::<u32>::new(&q, 100_000).unwrap();
        for v in [3u32, 10, 12, 28] {
            f.insert_host(v);
        }
        let before = q.profiler().kernel_count();
        inplace(&q, &f, |_l, v| v % 3 == 0);
        let names: Vec<String> = q.profiler().kernels()[before..]
            .iter()
            .map(|k| k.name.clone())
            .collect();
        assert_eq!(names, vec!["filter_inplace_sparse".to_string()]);
        assert_eq!(f.to_sorted_vec(), vec![3, 12]);
    }

    #[test]
    fn sparse_inplace_matches_dense_result() {
        let q = queue();
        let dense = TwoLayerFrontier::<u32>::new(&q, 300).unwrap();
        let sparse = SparseFrontier::<u32>::new(&q, 300).unwrap();
        for v in 0..300 {
            dense.insert_host(v);
            sparse.insert_host(v);
        }
        inplace(&q, &dense, |_l, v| v % 3 == 0);
        inplace(&q, &sparse, |_l, v| v % 3 == 0);
        assert_eq!(dense.to_sorted_vec(), sparse.to_sorted_vec());
        // Removals staled the list; re-adopting sparse rebuilds it.
        assert_eq!(sparse.adopt_rep(&q, RepKind::Sparse), RepKind::Sparse);
        assert_eq!(sparse.sparse_view(&q).unwrap().len, 100);
    }

    #[test]
    fn sparse_external_copies_passers() {
        let q = queue();
        let input = SparseFrontier::<u32>::new(&q, 200).unwrap();
        let output = SparseFrontier::<u32>::new(&q, 200).unwrap();
        for v in [1u32, 50, 51, 150] {
            input.insert_host(v);
        }
        let before = q.profiler().kernel_count();
        external(&q, &input, &output, |_l, v| v >= 50);
        let names: Vec<String> = q.profiler().kernels()[before..]
            .iter()
            .map(|k| k.name.clone())
            .collect();
        assert_eq!(names, vec!["filter_external_sparse".to_string()]);
        assert_eq!(output.to_sorted_vec(), vec![50, 51, 150]);
        assert_eq!(input.count(&q), 4, "input untouched");
        // The output's list was maintained through its insert path.
        assert_eq!(output.sparse_view(&q).unwrap().len, 3);
    }

    #[test]
    fn sparse_empty_filter_launches_nothing() {
        let q = queue();
        let f = SparseFrontier::<u32>::new(&q, 64).unwrap();
        let before = q.profiler().kernel_count();
        inplace(&q, &f, |_l, _v| true);
        let out = SparseFrontier::<u32>::new(&q, 64).unwrap();
        external(&q, &f, &out, |_l, _v| true);
        assert_eq!(q.profiler().kernel_count(), before);
    }

    #[test]
    fn functor_can_read_device_data() {
        let q = queue();
        let f = TwoLayerFrontier::<u32>::new(&q, 64).unwrap();
        let keep = q.malloc_device::<u32>(64).unwrap();
        for v in 0..64 {
            f.insert_host(v);
            keep.store(v as usize, v % 2);
        }
        inplace(&q, &f, |l, v| l.load(&keep, v as usize) != 0);
        assert_eq!(f.count(&q), 32);
    }
}
