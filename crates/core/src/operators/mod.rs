//! The SYgraph primitives (Table 2): `advance`, `filter`, `compute`.
//!
//! Each primitive launches one or more kernels on the queue and returns an
//! [`sygraph_sim::Event`] for host-side waits, exactly like the paper's
//! `sygraph::operators::` namespace.

pub mod advance;
pub mod compute;
pub mod filter;

use sygraph_sim::{Event, Queue};

/// A zero-duration event for a primitive with nothing to visit (empty
/// frontier, empty bucket, empty list, zero-vertex graph): the host learns
/// this from a count it already read back, so no empty grid is ever
/// launched.
fn no_launch(q: &Queue) -> Event {
    let now = q.now_ns();
    Event {
        start_ns: now,
        end_ns: now,
    }
}
