//! # sygraph-sim — SYCL-like GPU execution simulator
//!
//! This crate is the hardware substrate of the SYgraph reproduction. The
//! paper runs on real GPUs through SYCL; this simulator provides the same
//! programming model — queues bound to devices, USM-style buffers,
//! `nd_range` kernels with workgroups / subgroups / local memory, subgroup
//! collectives and device atomics — executed functionally on CPU threads
//! while a coalescing + cache + cost model produces the hardware metrics
//! the paper's evaluation reports (kernel time, L1 hit rate, achieved
//! occupancy, DRAM traffic, memory footprint, OOM behaviour).
//!
//! ## Quick tour
//!
//! ```
//! use sygraph_sim::{Device, DeviceProfile, Queue, LaunchConfig};
//!
//! let device = Device::new(DeviceProfile::v100s());
//! let q = Queue::new(device);
//! let buf = q.malloc_device::<u32>(1024).unwrap();
//!
//! // Range kernel (SYCL parallel_for over a range):
//! q.parallel_for("square", 1024, |ctx, i| {
//!     ctx.store(&buf, i, (i * i) as u32);
//! }).wait();
//!
//! // nd-range kernel with explicit workgroups and subgroup collectives:
//! let cfg = LaunchConfig::new("scan_demo", 4, 64, 32);
//! q.launch(cfg, |wg| {
//!     wg.for_each_subgroup(|sg| {
//!         let odd = sg.ballot(|lane| lane % 2 == 1);
//!         assert_eq!(odd.count_ones(), 16);
//!     });
//! }).wait();
//!
//! assert_eq!(buf.load(7), 49);
//! println!("simulated time: {:.3} ms", q.elapsed_ms());
//! ```

pub mod cache;
pub mod cancel;
pub mod coalesce;
pub mod cost;
pub mod device;
pub mod error;
pub mod exec;
pub mod fault;
pub mod memory;
pub mod profiler;
pub mod queue;
pub mod sanitize;
pub mod stats;

pub use cancel::CancelToken;
pub use device::{DeviceProfile, Vendor};
pub use error::{SimError, SimResult};
pub use exec::{full_mask, Accounting, GroupCtx, ItemCtx, LaunchConfig, SubgroupCtx, MAX_SUBGROUP};
pub use fault::FaultPlan;
pub use memory::{AllocKind, AtomicInt, DeviceBuffer, DeviceScalar};
pub use profiler::{
    DirectionEvent, KernelRecord, Plan, PlanInputs, Profiler, RepEvent, Retire, TraceEvent,
    TraceKind,
};
pub use queue::{Device, Event, Queue};
pub use sanitize::{Finding, FindingKind, Sanitizer};
pub use stats::{GroupStats, KernelStats};
