//! Device and queue: the SYCL-style entry points of the simulator.
//!
//! A [`Queue`] is bound to a [`Device`] (as in SYCL); kernels are submitted
//! with [`Queue::launch`] (nd-range) or [`Queue::parallel_for`] (range) and
//! return [`Event`]s carrying simulated timestamps. Submission is in-order:
//! the queue's simulated clock advances by each kernel's modelled duration.

use std::sync::Arc;

use parking_lot::Mutex;
use rayon::prelude::*;

use crate::cache::CacheHierarchy;
use crate::cancel::CancelToken;
use crate::cost::{self, CuAgg};
use crate::device::DeviceProfile;
use crate::error::{SimError, SimResult};
use crate::exec::{run_range_group, Accounting, GroupCtx, ItemCtx, LaunchConfig, SubgroupCtx};
use crate::fault::{FaultInjector, FaultPlan};
use crate::memory::{AllocKind, DeviceBuffer, DeviceScalar, MemTracker};
use crate::profiler::{KernelRecord, Profiler, TraceKind};
use crate::sanitize::{AccessRec, SanGroup, Sanitizer, Snapshot};

/// A simulated GPU: a profile plus its memory tracker.
#[derive(Debug)]
pub struct Device {
    pub profile: DeviceProfile,
    tracker: Arc<MemTracker>,
}

impl Device {
    pub fn new(profile: DeviceProfile) -> Arc<Self> {
        let tracker = Arc::new(MemTracker::new(profile.vram_bytes));
        Arc::new(Device { profile, tracker })
    }

    /// Bytes of device memory currently allocated.
    pub fn mem_used(&self) -> u64 {
        self.tracker.used()
    }

    /// Peak bytes of device memory allocated.
    pub fn mem_peak(&self) -> u64 {
        self.tracker.peak()
    }

    /// Resets the peak-memory watermark to the current usage.
    pub fn reset_mem_peak(&self) {
        self.tracker.reset_peak()
    }

    /// Caps the effective device capacity below physical VRAM (threshold
    /// OOM injection); `None` restores the full capacity.
    pub fn set_mem_soft_limit(&self, bytes: Option<u64>) {
        self.tracker.set_soft_limit(bytes)
    }

    /// Recomputes `used`/`peak` from the allocation ledger. Called after a
    /// checkpoint restore so accounting cannot drift from the true set of
    /// live allocations (e.g. via saturated releases).
    pub fn recompute_mem_accounting(&self) {
        self.tracker.recompute_from_ledger()
    }
}

/// Completion record of a submitted operation, with simulated timestamps.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    pub start_ns: f64,
    pub end_ns: f64,
}

impl Event {
    /// Host-side wait. Execution is already complete when `launch`
    /// returns (the simulator runs kernels synchronously); `wait` exists
    /// so algorithm code reads like SYCL code.
    pub fn wait(&self) {}

    /// Modelled duration in milliseconds.
    pub fn duration_ms(&self) -> f64 {
        (self.end_ns - self.start_ns) / 1e6
    }
}

/// In-order command queue bound to one device.
pub struct Queue {
    device: Arc<Device>,
    accounting: Accounting,
    /// Per-CU cache hierarchies, persistent across kernels (L2 keeps its
    /// contents; L1 is flushed when the CU starts its next kernel).
    caches: Vec<Mutex<CacheHierarchy>>,
    clock_ns: Mutex<f64>,
    seq: Mutex<u64>,
    profiler: Arc<Profiler>,
    /// Shadow-tracking sanitizer, attached via [`Queue::with_sanitizer`].
    sanitizer: Option<Arc<Sanitizer>>,
    /// Fault injector, attached via [`Queue::with_faults`].
    faults: Option<FaultInjector>,
    /// Cooperative cancellation, attached via [`Queue::set_cancel_token`].
    /// The superstep engine polls it at checkpoint boundaries.
    cancel: Mutex<Option<CancelToken>>,
}

impl Queue {
    pub fn new(device: Arc<Device>) -> Self {
        Self::with_accounting(device, Accounting::Full)
    }

    pub fn with_accounting(device: Arc<Device>, accounting: Accounting) -> Self {
        let caches = (0..device.profile.compute_units)
            .map(|_| Mutex::new(CacheHierarchy::for_cu(&device.profile)))
            .collect();
        Queue {
            device,
            accounting,
            caches,
            clock_ns: Mutex::new(0.0),
            seq: Mutex::new(0),
            profiler: Arc::new(Profiler::default()),
            sanitizer: None,
            faults: None,
            cancel: Mutex::new(None),
        }
    }

    /// A queue whose launches run under the sanitizer: every buffer
    /// access is shadow-tracked, races/OOB/use-after-free are reported,
    /// and flagged launches are re-executed under a seeded workgroup-
    /// order shuffle to confirm order dependence. `seed` drives the
    /// shuffle deterministically. Perf statistics are still collected,
    /// but kernels run noticeably slower.
    pub fn with_sanitizer(device: Arc<Device>, seed: u64) -> Self {
        let mut q = Self::with_accounting(device, Accounting::Full);
        q.sanitizer = Some(Arc::new(Sanitizer::new(seed)));
        q
    }

    /// The attached sanitizer, if this queue was built with one.
    pub fn sanitizer(&self) -> Option<&Arc<Sanitizer>> {
        self.sanitizer.as_ref()
    }

    /// A queue with a deterministic [`FaultPlan`] attached: launches and
    /// allocations fail exactly where the plan says (see `crate::fault`).
    /// With an empty plan this is zero-overhead: the simulated clock and
    /// trace log are byte-identical to a plain queue.
    pub fn with_faults(device: Arc<Device>, plan: FaultPlan) -> Self {
        let mut q = Self::new(device);
        q.attach_faults(plan);
        q
    }

    /// Attaches a [`FaultPlan`] to an existing queue (composes with the
    /// sanitizer: faulted launches are skipped before shadow tracking, so
    /// the injector produces no sanitizer findings).
    pub fn attach_faults(&mut self, plan: FaultPlan) {
        if let Some(frac) = plan.oom_limit {
            let cap = self.device.profile.vram_bytes;
            self.device
                .tracker
                .set_soft_limit(Some((cap as f64 * frac) as u64));
        }
        self.faults = Some(FaultInjector::new(plan));
    }

    /// Drains the pending injected fault, if any, re-enabling launches
    /// (unless the device is lost — see [`Queue::revive`]).
    pub fn take_fault(&self) -> Option<SimError> {
        self.faults.as_ref()?.take()
    }

    /// True if a fault is pending (subsequent launches are being skipped)
    /// or the device is lost.
    pub fn fault_pending(&self) -> bool {
        self.faults.as_ref().is_some_and(|f| f.pending())
    }

    /// Synchronization point for fault delivery: drains any pending
    /// injected fault as an `Err`. Algorithms place this between phases
    /// whose launches are *not* idempotent to re-run (and before reading
    /// results back), so a silently-skipped launch surfaces as a typed
    /// failure instead of corrupt output. A no-op without a fault plan.
    pub fn fault_barrier(&self) -> SimResult<()> {
        match self.take_fault() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Clears a sticky `DeviceLost` (models swapping in a fresh device for
    /// checkpoint resume). Device memory contents are preserved by the
    /// simulator; restoring state buffers is the caller's responsibility.
    pub fn revive(&self) {
        if let Some(f) = &self.faults {
            f.revive();
        }
    }

    /// Attaches (or, with `None`, detaches) a [`CancelToken`]. Engine
    /// loops poll it through [`Queue::check_cancelled`] at checkpoint
    /// boundaries; a detached queue is never cancelled.
    pub fn set_cancel_token(&self, token: Option<CancelToken>) {
        *self.cancel.lock() = token;
    }

    /// `Err(SimError::Cancelled)` when the attached token has fired;
    /// `Ok(())` otherwise (including when no token is attached).
    pub fn check_cancelled(&self) -> SimResult<()> {
        match &*self.cancel.lock() {
            Some(token) => token.check(),
            None => Ok(()),
        }
    }

    /// Advances the simulated clock without running a kernel (used to model
    /// retry backoff in simulated time).
    pub fn advance_clock_ns(&self, ns: f64) {
        *self.clock_ns.lock() += ns;
    }

    pub fn device(&self) -> &Arc<Device> {
        &self.device
    }

    pub fn profile(&self) -> &DeviceProfile {
        &self.device.profile
    }

    pub fn profiler(&self) -> &Arc<Profiler> {
        &self.profiler
    }

    pub fn accounting(&self) -> Accounting {
        self.accounting
    }

    /// Current simulated time (ns).
    pub fn now_ns(&self) -> f64 {
        *self.clock_ns.lock()
    }

    /// Resets the simulated clock and profiler (memory stays allocated).
    pub fn reset(&self) {
        *self.clock_ns.lock() = 0.0;
        *self.seq.lock() = 0;
        self.profiler.reset();
    }

    /// Appends `kind` to the trace log at the current simulated time;
    /// `superstep: None` inherits the step last announced on this queue.
    pub fn trace(&self, superstep: Option<u32>, kind: TraceKind) {
        self.profiler.record(self.now_ns(), superstep, kind);
    }

    /// Inserts a profiler phase marker at the current simulated time.
    pub fn mark(&self, label: impl Into<String>) {
        self.trace(None, TraceKind::Mark(label.into()));
    }

    // ---- allocation -------------------------------------------------------

    /// SYCL `malloc_device`: device-resident allocation.
    pub fn malloc_device<T: DeviceScalar>(&self, len: usize) -> SimResult<DeviceBuffer<T>> {
        self.alloc(len, AllocKind::Device, "device")
    }

    /// SYCL `malloc_shared` (USM): host-visible allocation.
    pub fn malloc_shared<T: DeviceScalar>(&self, len: usize) -> SimResult<DeviceBuffer<T>> {
        self.alloc(len, AllocKind::Shared, "shared")
    }

    fn alloc<T: DeviceScalar>(
        &self,
        len: usize,
        kind: AllocKind,
        tag: &str,
    ) -> SimResult<DeviceBuffer<T>> {
        if let Some(e) = self.faults.as_ref().and_then(|f| f.alloc_fault()) {
            return Err(e);
        }
        let buf = DeviceBuffer::new(self.device.tracker.clone(), len, kind)?;
        self.trace_mem(buf.bytes() as i64, tag);
        Ok(buf)
    }

    /// Records the free of a buffer (the buffer's `Drop` returns the bytes;
    /// call this first when the event timeline matters, e.g. Figure 9).
    pub fn free<T: DeviceScalar>(&self, buf: DeviceBuffer<T>) {
        let bytes = buf.bytes();
        drop(buf);
        self.trace_mem(-(bytes as i64), "free");
    }

    fn trace_mem(&self, delta_bytes: i64, tag: &str) {
        let kind = TraceKind::Mem {
            delta_bytes,
            usage_after: self.device.tracker.used(),
            tag: tag.into(),
        };
        self.trace(None, kind);
    }

    // ---- kernel submission -------------------------------------------------

    /// Submits an nd-range kernel: `kernel` runs once per workgroup.
    pub fn launch<F>(&self, cfg: LaunchConfig, kernel: F) -> Event
    where
        F: Fn(&mut GroupCtx<'_>) + Sync,
    {
        assert!(
            cfg.sg_size > 0 && cfg.wg_size.is_multiple_of(cfg.sg_size),
            "workgroup size {} must be a multiple of subgroup size {}",
            cfg.wg_size,
            cfg.sg_size
        );
        assert!(cfg.sg_size as usize <= crate::exec::MAX_SUBGROUP);
        if let Some(inj) = &self.faults {
            if inj.intercept(&cfg.name) {
                // Faulted or skipped launch: nothing ran. Return a
                // zero-duration event at the current time without touching
                // the clock or the profiler.
                let t = self.now_ns();
                return Event {
                    start_ns: t,
                    end_ns: t,
                };
            }
        }
        if let Some(san) = self.sanitizer.clone() {
            return self.launch_sanitized(cfg, &kernel, san);
        }
        let (aggs, _) = self.run_groups(&cfg, &kernel, self.accounting, None, None);
        let kstats = cost::finalize(&self.device.profile, &cfg, &aggs);
        self.commit(cfg.name, kstats)
    }

    /// Executes every workgroup of a launch across the simulated CUs,
    /// optionally under a permuted workgroup order and/or with sanitizer
    /// shadow logging. Returns the cost aggregates of the CUs that got a
    /// workgroup (`cost::finalize` skips idle CUs, so leaving them out
    /// changes nothing) and the merged shadow log (empty unless `san` is
    /// given).
    fn run_groups<F>(
        &self,
        cfg: &LaunchConfig,
        kernel: &F,
        accounting: Accounting,
        order: Option<&[usize]>,
        san: Option<(&Arc<Sanitizer>, &Arc<str>)>,
    ) -> (Vec<CuAgg>, Vec<AccessRec>)
    where
        F: Fn(&mut GroupCtx<'_>) + Sync,
    {
        let profile = &self.device.profile;
        let cus = profile.compute_units as usize;
        let line_bytes = profile.line_bytes;
        // Slot `g` runs on CU `g % cus`: CUs from `workgroups` up stay idle
        // and are neither locked nor visited. Their L1 is flushed by the
        // `kernel_boundary` of the next launch that reaches them.
        let active = cus.min(cfg.workgroups);

        let per_cu: Vec<(CuAgg, Vec<AccessRec>)> = (0..active)
            .into_par_iter()
            .map(|cu| {
                let mut agg = CuAgg::default();
                let mut recs = Vec::new();
                let mut guard = self.caches[cu].lock();
                guard.kernel_boundary();
                // GroupCtx borrows the CU's cache hierarchy for its
                // lifetime; workgroups on the same CU run sequentially and
                // hand it back through `finish`.
                let mut cache = if accounting == Accounting::Full {
                    Some(&mut *guard)
                } else {
                    None
                };
                let mut g = cu;
                while g < cfg.workgroups {
                    // Under a shuffle, slot `g` runs workgroup `order[g]`.
                    let gid = order.map_or(g, |p| p[g]);
                    let sg = san.map(|(s, label)| {
                        SanGroup::new(Arc::clone(s), Arc::clone(label), gid as u32)
                    });
                    let mut ctx = GroupCtx::new(gid, cfg, accounting, cache.take(), line_bytes, sg);
                    kernel(&mut ctx);
                    let (stats, returned, sg) = ctx.finish();
                    cache = returned;
                    if let Some(sg) = sg {
                        recs.extend(sg.into_recs());
                    }
                    agg.add_group(profile, cfg, &stats);
                    g += cus;
                }
                (agg, recs)
            })
            .collect();

        let mut aggs = Vec::with_capacity(per_cu.len());
        let mut recs = Vec::new();
        for (agg, r) in per_cu {
            aggs.push(agg);
            recs.extend(r);
        }
        (aggs, recs)
    }

    /// Sanitized launch path: run with shadow logging, scan the merged
    /// log for conflicts, and re-execute flagged launches from a memory
    /// snapshot under a seeded workgroup-order shuffle, diffing the final
    /// images to confirm order dependence. The first run's result is
    /// always restored, so algorithm output is unchanged by the re-run.
    fn launch_sanitized<F>(&self, cfg: LaunchConfig, kernel: &F, san: Arc<Sanitizer>) -> Event
    where
        F: Fn(&mut GroupCtx<'_>) + Sync,
    {
        let label: Arc<str> = Arc::from(cfg.name.as_str());
        let tracker = &self.device.tracker;
        let snap = Snapshot::capture_live(tracker);

        let (aggs, mut recs) =
            self.run_groups(&cfg, kernel, self.accounting, None, Some((&san, &label)));
        let flagged = san.analyze_launch(&label, &mut recs, tracker);
        let underflows = tracker.drain_release_underflows();
        if underflows > 0 {
            san.record_underflow(&label, underflows);
        }

        if flagged && cfg.workgroups > 1 {
            self.mark(format!("sanitize:flagged:{label}"));
            let first = snap.current();
            snap.restore();
            let perm = san.permutation(cfg.workgroups, *self.seq.lock());
            // Re-run is diagnostic only: no accounting, no shadow log,
            // and nothing is committed to the profiler or clock.
            let _ = self.run_groups(&cfg, kernel, Accounting::Off, Some(&perm), None);
            let second = snap.current();
            san.diff_order(&label, &snap, &first, &second);
            snap.restore_to(&first);
        }

        let kstats = cost::finalize(&self.device.profile, &cfg, &aggs);
        self.commit(cfg.name, kstats)
    }

    /// Submits a range kernel over `[0, n)`: SYCL `parallel_for(range)`.
    /// The runtime picks the workgroup decomposition (as the paper notes
    /// for `compute` and `filter`, which leave blocking to the compiler).
    pub fn parallel_for<F>(&self, name: impl Into<String>, n: usize, f: F) -> Event
    where
        F: Fn(&mut ItemCtx<'_>, usize) + Sync,
    {
        let (wg_size, sg) = self.range_shape();
        let groups = n.div_ceil(wg_size as usize);
        let cfg = LaunchConfig::new(name, groups, wg_size, sg);
        let per_group = wg_size as usize;
        self.launch(cfg, |ctx| {
            let start = ctx.group_id * per_group;
            let end = (start + per_group).min(n);
            run_range_group(ctx, start, end, &f);
        })
    }

    /// `(workgroup size, subgroup width)` the runtime picks for range
    /// kernels.
    fn range_shape(&self) -> (u32, u32) {
        let profile = &self.device.profile;
        (
            256.min(profile.max_workgroup_size),
            profile.preferred_subgroup,
        )
    }

    /// Submits a range kernel at subgroup granularity: `f(sg, u)` runs
    /// once per unit `u` in `[0, units)`, one subgroup each, in
    /// [`Queue::parallel_for`]'s workgroup shape. For kernels that need
    /// the collectives (ballot, scan, [`SubgroupCtx::reserve`]) across the
    /// lanes of a unit — `f` maps its lanes onto the unit's items.
    pub fn parallel_for_subgroups<F>(&self, name: impl Into<String>, units: usize, f: F) -> Event
    where
        F: Fn(&mut SubgroupCtx<'_, '_>, usize) + Sync,
    {
        let (wg_size, sg) = self.range_shape();
        let per_group = (wg_size / sg) as usize;
        let cfg = LaunchConfig::new(name, units.div_ceil(per_group), wg_size, sg);
        self.launch(cfg, |ctx| {
            let base = ctx.group_id * per_group;
            ctx.for_each_subgroup(|sg| {
                let unit = base + sg.sg_id() as usize;
                if unit < units {
                    f(sg, unit);
                }
            });
        })
    }

    /// Fills a buffer from the device (a `memset`-style kernel, modelled at
    /// streaming bandwidth and accounted as DRAM traffic).
    pub fn fill<T: DeviceScalar>(&self, buf: &DeviceBuffer<T>, v: T) -> Event {
        self.parallel_for("fill", buf.len(), |ctx, i| {
            ctx.store(buf, i, v);
        })
    }

    /// Device-to-device copy.
    pub fn copy<T: DeviceScalar>(&self, src: &DeviceBuffer<T>, dst: &DeviceBuffer<T>) -> Event {
        assert!(dst.len() >= src.len());
        self.parallel_for("copy", src.len(), |ctx, i| {
            let v = ctx.load(src, i);
            ctx.store(dst, i, v);
        })
    }

    fn commit(&self, name: String, kstats: crate::stats::KernelStats) -> Event {
        let mut clock = self.clock_ns.lock();
        let start = *clock;
        let end = start + kstats.total_ns();
        *clock = end;
        drop(clock);
        let mut seq = self.seq.lock();
        let s = *seq;
        *seq += 1;
        drop(seq);
        let rec = KernelRecord {
            name,
            seq: s,
            start_ns: start,
            end_ns: end,
            stats: kstats,
        };
        self.profiler.record(start, None, TraceKind::Kernel(rec));
        Event {
            start_ns: start,
            end_ns: end,
        }
    }

    /// Convenience: total simulated time spent so far, in ms.
    pub fn elapsed_ms(&self) -> f64 {
        self.now_ns() / 1e6
    }
}

impl std::fmt::Debug for Queue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Queue(device={}, t={:.3}ms)",
            self.device.profile.name,
            self.elapsed_ms()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q() -> Queue {
        Queue::new(Device::new(DeviceProfile::host_test()))
    }

    #[test]
    fn parallel_for_executes_all_items() {
        let q = q();
        let buf = q.malloc_device::<u32>(1000).unwrap();
        let ev = q.parallel_for("inc", 1000, |ctx, i| {
            ctx.store(&buf, i, i as u32 * 2);
        });
        ev.wait();
        assert_eq!(buf.load(0), 0);
        assert_eq!(buf.load(499), 998);
        assert_eq!(buf.load(999), 1998);
        assert!(ev.duration_ms() > 0.0);
    }

    #[test]
    fn clock_advances_in_order() {
        let q = q();
        let buf = q.malloc_device::<u32>(64).unwrap();
        let e1 = q.fill(&buf, 1);
        let e2 = q.fill(&buf, 2);
        assert!(e2.start_ns >= e1.end_ns);
        assert_eq!(buf.load(63), 2);
    }

    #[test]
    fn ndrange_launch_runs_every_group() {
        let q = q();
        let buf = q.malloc_device::<u32>(64).unwrap();
        let cfg = LaunchConfig::new("groups", 64, 8, 8);
        q.launch(cfg, |ctx| {
            let g = ctx.group_id;
            ctx.for_each_subgroup(|sg| {
                sg.store_uniform(&buf, g, g as u32 + 1);
            });
        });
        for g in 0..64 {
            assert_eq!(buf.load(g), g as u32 + 1);
        }
    }

    #[test]
    fn profiler_records_kernels() {
        let q = q();
        let buf = q.malloc_device::<u32>(256).unwrap();
        q.fill(&buf, 7);
        q.parallel_for("read", 256, |ctx, i| {
            let _ = ctx.load(&buf, i);
        });
        let ks = q.profiler().kernels();
        assert_eq!(ks.len(), 2);
        assert_eq!(ks[0].name, "fill");
        assert_eq!(ks[1].name, "read");
        assert!(ks[1].stats.totals.transactions() > 0);
    }

    #[test]
    fn functional_mode_skips_accounting() {
        let dev = Device::new(DeviceProfile::host_test());
        let q = Queue::with_accounting(dev, Accounting::Off);
        let buf = q.malloc_device::<u32>(256).unwrap();
        q.fill(&buf, 3);
        let ks = q.profiler().kernels();
        assert_eq!(ks[0].stats.totals.transactions(), 0);
        assert_eq!(buf.load(100), 3);
    }

    #[test]
    fn copy_moves_data() {
        let q = q();
        let a = q.malloc_device::<u64>(32).unwrap();
        let b = q.malloc_device::<u64>(32).unwrap();
        a.copy_from_slice(&(0..32).map(|x| x * x).collect::<Vec<u64>>());
        q.copy(&a, &b);
        assert_eq!(b.to_vec(), a.to_vec());
    }

    #[test]
    fn mem_events_logged() {
        let q = q();
        let b = q.malloc_device::<u32>(1024).unwrap();
        q.free(b);
        let evs = q.profiler().select(|e| match e.kind {
            TraceKind::Mem {
                delta_bytes,
                usage_after,
                ..
            } => Some((delta_bytes, usage_after)),
            _ => None,
        });
        assert_eq!(evs, vec![(4096, 4096), (-4096, 0)]);
    }

    #[test]
    fn reset_clears_time_and_records() {
        let q = q();
        let b = q.malloc_device::<u32>(64).unwrap();
        q.fill(&b, 1);
        assert!(q.now_ns() > 0.0);
        q.reset();
        assert_eq!(q.now_ns(), 0.0);
        assert_eq!(q.profiler().kernel_count(), 0);
    }

    #[test]
    fn oom_propagates_from_queue_alloc() {
        let mut prof = DeviceProfile::host_test();
        prof.vram_bytes = 1024;
        let q = Queue::new(Device::new(prof));
        let _keep = q.malloc_device::<u64>(100).unwrap();
        assert!(matches!(
            q.malloc_device::<u64>(100),
            Err(SimError::OutOfMemory { .. })
        ));
    }
}
