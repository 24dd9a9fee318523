//! The `compute` primitive (§3.1): applies a functor to every frontier
//! element. Kept separate from `advance` because it has no load-balancing
//! problem — memory access is regular — so it maps to a plain SYCL `range`
//! kernel (§3.3, §3.5).

use sygraph_sim::{Event, ItemCtx, Queue};

use crate::frontier::word::{locate, Word};
use crate::frontier::BitmapLike;
use crate::operators::no_launch;
use crate::types::VertexId;

/// The compute functor: `(lane, vertex)`, matching `Functor(id)`.
pub trait ComputeFunctor: Fn(&mut ItemCtx<'_>, VertexId) + Sync {}
impl<F> ComputeFunctor for F where F: Fn(&mut ItemCtx<'_>, VertexId) + Sync {}

/// `compute::execute(G, Frontier, Functor)`: applies `functor` to each
/// active vertex.
pub fn execute<W: Word>(
    q: &Queue,
    frontier: &dyn BitmapLike<W>,
    functor: impl ComputeFunctor,
) -> Event {
    let words = frontier.words();
    q.parallel_for("compute", frontier.capacity(), |lane, v| {
        let (wi, b) = locate::<W>(v as u32);
        let w = lane.load(words, wi);
        if w.test_bit(b) {
            functor(lane, v as u32);
        }
    })
}

/// Applies `functor` to *every* vertex `0..n` (initialization passes,
/// e.g. setting all BFS distances to ∞).
pub fn execute_all(q: &Queue, n: usize, functor: impl ComputeFunctor) -> Event {
    q.parallel_for("compute_all", n, |lane, v| functor(lane, v as u32))
}

/// Like [`execute`], but sized by the frontier's population instead of
/// its `capacity()` bit slots (the superstep engine's unfused compute
/// path). A frontier that presents an exact item list has the functor run
/// over the list, one lane per entry and no scan at all; otherwise only
/// the non-zero words reported by [`BitmapLike::compact`] are visited.
/// Falls back to [`execute`] for layouts with neither.
pub fn over_compacted<W: Word>(
    q: &Queue,
    frontier: &dyn BitmapLike<W>,
    functor: impl ComputeFunctor,
) -> Event {
    if let Some(view) = frontier.sparse_view(q) {
        if view.len == 0 {
            return no_launch(q);
        }
        let items = view.items;
        return q.parallel_for("compute", view.len, |lane, i| {
            let v = lane.load(items, i);
            functor(lane, v);
        });
    }
    let Some((nz, offsets)) = frontier.compact(q) else {
        return execute(q, frontier, functor);
    };
    if nz == 0 {
        return no_launch(q);
    }
    let words = frontier.words();
    let n = frontier.capacity() as u32;
    let bits = W::BITS as usize;
    q.parallel_for("compute_compacted", nz * bits, |lane, i| {
        let wi = lane.load(offsets, i / bits) as usize;
        let b = (i % bits) as u32;
        let v = wi as u32 * W::BITS + b;
        if v < n && lane.load(words, wi).test_bit(b) {
            functor(lane, v);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontier::{Frontier, TwoLayerFrontier};
    use sygraph_sim::{Device, DeviceProfile};

    fn queue() -> Queue {
        Queue::new(Device::new(DeviceProfile::host_test()))
    }

    #[test]
    fn execute_touches_only_active() {
        let q = queue();
        let f = TwoLayerFrontier::<u32>::new(&q, 100).unwrap();
        let vals = q.malloc_device::<u32>(100).unwrap();
        f.insert_host(10);
        f.insert_host(90);
        execute(&q, &f, |l, v| {
            l.store(&vals, v as usize, v + 1);
        });
        assert_eq!(vals.load(10), 11);
        assert_eq!(vals.load(90), 91);
        assert_eq!(vals.load(50), 0, "inactive untouched");
    }

    #[test]
    fn execute_all_covers_range() {
        let q = queue();
        let vals = q.malloc_device::<u32>(500).unwrap();
        execute_all(&q, 500, |l, v| l.store(&vals, v as usize, 7));
        assert!(vals.to_vec().iter().all(|&x| x == 7));
    }

    #[test]
    fn over_compacted_matches_execute() {
        let q = queue();
        let f = TwoLayerFrontier::<u32>::new(&q, 1000).unwrap();
        for v in (0..1000).step_by(97) {
            f.insert_host(v);
        }
        let a = q.malloc_device::<u32>(1000).unwrap();
        let b = q.malloc_device::<u32>(1000).unwrap();
        execute(&q, &f, |l, v| l.store(&a, v as usize, v + 1));
        over_compacted(&q, &f, |l, v| l.store(&b, v as usize, v + 1));
        assert_eq!(a.to_vec(), b.to_vec());
    }

    #[test]
    fn over_compacted_falls_back_without_compaction() {
        let q = queue();
        let f = crate::frontier::BitmapFrontier::<u32>::new(&q, 100).unwrap();
        f.insert_host(42);
        let hits = q.malloc_device::<u32>(1).unwrap();
        over_compacted(&q, &f, |l, _v| {
            l.fetch_add(&hits, 0, 1);
        });
        assert_eq!(hits.load(0), 1);
    }

    #[test]
    fn over_compacted_empty_frontier_launches_nothing() {
        let q = queue();
        let f = TwoLayerFrontier::<u32>::new(&q, 100).unwrap();
        let before = q.profiler().kernel_count();
        over_compacted(&q, &f, |_l, _v| {});
        // only the compaction kernel ran; no compute kernel
        assert_eq!(q.profiler().kernel_count(), before + 1);
    }

    #[test]
    fn bfs_distance_update_pattern() {
        // The Listing 1 compute step: dist[v] = iter + 1 over the output
        // frontier.
        let q = queue();
        let f = TwoLayerFrontier::<u32>::new(&q, 64).unwrap();
        let dist = q.malloc_device::<u32>(64).unwrap();
        q.fill(&dist, u32::MAX);
        f.insert_host(3);
        f.insert_host(4);
        let iter = 5u32;
        execute(&q, &f, |l, v| {
            l.store(&dist, v as usize, iter + 1);
        });
        assert_eq!(dist.load(3), 6);
        assert_eq!(dist.load(4), 6);
        assert_eq!(dist.load(5), u32::MAX);
    }
}
