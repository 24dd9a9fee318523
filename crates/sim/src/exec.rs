//! Kernel execution contexts.
//!
//! Kernels are written in a *workgroup-synchronous* style: a kernel is a
//! `Fn(&mut GroupCtx)` invoked once per workgroup. Inside, the kernel
//! iterates its subgroups ([`GroupCtx::for_each_subgroup`]) and issues
//! SIMD-style operations through [`SubgroupCtx`] — gathers, scatters,
//! atomics and subgroup collectives (ballot / scan / reduce) — each of which
//! is executed functionally *and* fed to the coalescing + cache models.
//!
//! Simple data-parallel kernels (the `compute` / `filter` primitives) use
//! the per-work-item [`ItemCtx`] instead, via `Queue::parallel_for`; lane
//! accesses are batched per static instruction so coalescing behaves as on
//! real hardware.

use crate::cache::{CacheHierarchy, CacheLevel};
use crate::coalesce::Coalescer;
use crate::memory::{AtomicInt, DeviceBuffer, DeviceScalar};
use crate::sanitize::{SanGroup, SanScope};
use crate::stats::GroupStats;

/// Maximum subgroup width the simulator supports (AMD wavefront).
pub const MAX_SUBGROUP: usize = 64;

/// Cycles charged for a workgroup barrier.
const BARRIER_CYCLES: u64 = 24;
/// Cycles charged per serialized atomic conflict.
const ATOMIC_CONFLICT_CYCLES: u64 = 12;

/// Launch shape of a kernel.
#[derive(Debug, Clone)]
pub struct LaunchConfig {
    /// Kernel name, used by the profiler.
    pub name: String,
    /// Number of workgroups.
    pub workgroups: usize,
    /// Work-items per workgroup.
    pub wg_size: u32,
    /// Subgroup (warp/wavefront) width; must divide `wg_size`.
    pub sg_size: u32,
    /// Local (shared) memory bytes declared per workgroup; limits occupancy.
    pub local_mem_bytes: u32,
}

impl LaunchConfig {
    pub fn new(name: impl Into<String>, workgroups: usize, wg_size: u32, sg_size: u32) -> Self {
        LaunchConfig {
            name: name.into(),
            workgroups,
            wg_size,
            sg_size,
            local_mem_bytes: 0,
        }
    }

    pub fn with_local_mem(mut self, bytes: u32) -> Self {
        self.local_mem_bytes = bytes;
        self
    }
}

/// Whether the runtime collects performance statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Accounting {
    /// Functional execution only — fastest, used by correctness tests.
    Off,
    /// Full coalescing, cache and cost modelling (default).
    #[default]
    Full,
}

/// Per-workgroup execution context handed to kernels.
pub struct GroupCtx<'a> {
    /// This workgroup's index.
    pub group_id: usize,
    /// Total workgroups in the launch.
    pub num_groups: usize,
    /// Work-items per workgroup.
    pub wg_size: u32,
    /// Subgroup width.
    pub sg_size: u32,
    pub(crate) stats: GroupStats,
    accounting: Accounting,
    cache: Option<&'a mut CacheHierarchy>,
    coalescer: Coalescer,
    line_bytes: u32,
    /// Local (shared) memory, u32-word addressable.
    local: Vec<u32>,
    /// Scratch for atomic-conflict detection.
    addr_scratch: Vec<u64>,
    /// Reusable per-instruction access log for lane-level lambdas.
    lane_log: AccessLog,
    /// Sanitizer shadow log, present only under `--sanitize`.
    san: Option<SanGroup>,
}

impl<'a> GroupCtx<'a> {
    pub(crate) fn new(
        group_id: usize,
        cfg: &LaunchConfig,
        accounting: Accounting,
        cache: Option<&'a mut CacheHierarchy>,
        line_bytes: u32,
        san: Option<SanGroup>,
    ) -> Self {
        debug_assert!(cfg.wg_size.is_multiple_of(cfg.sg_size));
        GroupCtx {
            group_id,
            num_groups: cfg.workgroups,
            wg_size: cfg.wg_size,
            sg_size: cfg.sg_size,
            stats: GroupStats::default(),
            accounting,
            cache,
            coalescer: Coalescer::new(line_bytes),
            line_bytes,
            local: vec![0; (cfg.local_mem_bytes as usize).div_ceil(4)],
            addr_scratch: Vec::with_capacity(MAX_SUBGROUP),
            lane_log: AccessLog::default(),
            san,
        }
    }

    /// Shadow-records one access for the sanitizer (no-op when off).
    /// Must run *before* `addr_of`, whose always-on bounds check panics
    /// on the very OOB access the sanitizer wants to classify first.
    #[inline]
    fn san_note<T: DeviceScalar>(
        &mut self,
        buf: &DeviceBuffer<T>,
        i: usize,
        write: bool,
        atomic: bool,
        lane: u32,
    ) {
        if let Some(s) = self.san.as_mut() {
            s.access(buf, i, write, atomic, lane);
        }
    }

    /// Number of subgroups in this workgroup.
    pub fn num_subgroups(&self) -> u32 {
        self.wg_size / self.sg_size
    }

    /// Runs `f` once per subgroup, in order. On hardware subgroups run
    /// concurrently; kernels written for this API must not rely on
    /// cross-subgroup ordering except through [`GroupCtx::barrier`].
    pub fn for_each_subgroup(&mut self, mut f: impl FnMut(&mut SubgroupCtx<'_, 'a>)) {
        for sg_id in 0..self.num_subgroups() {
            let mut sg = SubgroupCtx { g: self, sg_id };
            f(&mut sg);
        }
    }

    /// Workgroup-wide barrier.
    pub fn barrier(&mut self) {
        if self.accounting == Accounting::Full {
            self.stats.barriers += 1;
            self.stats.compute_cycles += BARRIER_CYCLES;
        }
    }

    /// Local-memory word count available to this group.
    pub fn local_len(&self) -> usize {
        self.local.len()
    }

    /// Reads local memory word `i`.
    #[inline]
    pub fn local_read(&mut self, i: usize) -> u32 {
        if self.accounting == Accounting::Full {
            self.stats.local_accesses += 1;
        }
        self.local[i]
    }

    /// Writes local memory word `i`.
    #[inline]
    pub fn local_write(&mut self, i: usize, v: u32) {
        if self.accounting == Accounting::Full {
            self.stats.local_accesses += 1;
        }
        self.local[i] = v;
    }

    /// Accounts one SIMD memory instruction whose active lanes touched
    /// `addrs` (element base addresses, `bytes` each).
    fn account_instruction(&mut self, elem_bytes: u32, atomic: bool, active: u32) {
        if self.accounting == Accounting::Off {
            return;
        }
        self.stats.active_lanes += active as u64;
        self.stats.lane_slots += self.sg_size as u64;
        // `addr_scratch` has been filled by the caller.
        self.coalescer.begin();
        for &a in &self.addr_scratch {
            self.coalescer.lane(a, elem_bytes);
        }
        let line_bytes = self.line_bytes as u64;
        let stats = &mut self.stats;
        if let Some(cache) = self.cache.as_deref_mut() {
            self.coalescer
                .flush(|line_addr| match cache.access(line_addr) {
                    CacheLevel::L1 => stats.l1_hits += 1,
                    CacheLevel::L2 => stats.l2_hits += 1,
                    CacheLevel::Dram => {
                        stats.dram_transactions += 1;
                        stats.dram_bytes += line_bytes;
                    }
                });
        } else {
            // No cache model attached: everything counts as DRAM traffic.
            let n = self.coalescer.flush(|_| {});
            stats.dram_transactions += n;
            stats.dram_bytes += n * line_bytes;
        }
        if atomic {
            stats.atomics += active as u64;
            // Lanes targeting the same element serialize.
            self.addr_scratch.sort_unstable();
            self.addr_scratch.dedup();
            let conflicts = active as u64 - self.addr_scratch.len() as u64;
            stats.atomic_conflict_cycles += conflicts * ATOMIC_CONFLICT_CYCLES;
        }
        self.stats.compute_cycles += 1; // issue cost of the instruction
    }

    #[cfg(test)]
    pub(crate) fn take_stats(self) -> GroupStats {
        self.stats
    }

    /// Consumes the context, returning its stats, handing the borrowed
    /// cache hierarchy back so the next workgroup on the same CU reuses
    /// it, and surfacing the shadow log for the post-launch race scan.
    pub(crate) fn finish(self) -> (GroupStats, Option<&'a mut CacheHierarchy>, Option<SanGroup>) {
        (self.stats, self.cache, self.san)
    }
}

/// Full-width lane mask for a subgroup of `width` lanes.
#[inline]
pub fn full_mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// SIMD execution handle for one subgroup.
///
/// Lane-indexed closures follow a gather/scatter convention: `src` closures
/// are called once per *active* lane (mask bit set) and produce indices or
/// values; `sink` closures receive per-lane results.
pub struct SubgroupCtx<'g, 'a> {
    g: &'g mut GroupCtx<'a>,
    sg_id: u32,
}

impl<'g, 'a> SubgroupCtx<'g, 'a> {
    /// Subgroup width in lanes.
    pub fn width(&self) -> u32 {
        self.g.sg_size
    }

    /// Index of this subgroup within its workgroup.
    pub fn sg_id(&self) -> u32 {
        self.sg_id
    }

    /// Index of this subgroup across the whole launch.
    pub fn global_sg_index(&self) -> usize {
        self.g.group_id * self.g.num_subgroups() as usize + self.sg_id as usize
    }

    /// The owning workgroup's id.
    pub fn group_id(&self) -> usize {
        self.g.group_id
    }

    /// Mask with all lanes active.
    pub fn full_mask(&self) -> u64 {
        full_mask(self.width())
    }

    /// Charges `cycles` of SIMD compute (one instruction slot).
    pub fn compute(&mut self, cycles: u64) {
        self.compute_masked(self.full_mask(), cycles);
    }

    /// Charges compute with only `mask` lanes active (divergence shows up
    /// in the SIMD-efficiency statistic).
    pub fn compute_masked(&mut self, mask: u64, cycles: u64) {
        if self.g.accounting == Accounting::Full {
            self.g.stats.compute_cycles += cycles;
            self.g.stats.active_lanes += mask.count_ones() as u64;
            self.g.stats.lane_slots += self.width() as u64;
        }
    }

    // ---- collectives -----------------------------------------------------

    /// Subgroup ballot: evaluates `f` on every lane, returns the mask of
    /// lanes for which it was true.
    pub fn ballot(&mut self, mut f: impl FnMut(u32) -> bool) -> u64 {
        let w = self.width();
        let mut m = 0u64;
        for lane in 0..w {
            if f(lane) {
                m |= 1 << lane;
            }
        }
        self.compute_masked(full_mask(w), 1);
        m
    }

    /// Exclusive prefix sum over lane values. `out[lane]` receives the sum
    /// of values of lanes `< lane`; the total is returned. Inactive lanes
    /// contribute zero. Costs `log2(width)` SIMD steps like a real
    /// subgroup scan.
    pub fn exclusive_scan_add(
        &mut self,
        mask: u64,
        mut vals: impl FnMut(u32) -> u32,
        out: &mut [u32],
    ) -> u32 {
        let w = self.width();
        let mut acc = 0u32;
        for lane in 0..w {
            out[lane as usize] = acc;
            if mask & (1 << lane) != 0 {
                acc += vals(lane);
            }
        }
        if self.g.accounting == Accounting::Full {
            let steps = (w.max(2)).ilog2() as u64;
            self.g.stats.compute_cycles += steps;
            self.g.stats.active_lanes += (mask.count_ones() as u64) * steps;
            self.g.stats.lane_slots += w as u64 * steps;
        }
        acc
    }

    /// Subgroup reduction (add) over `u64` lane values.
    pub fn reduce_add_u64(&mut self, mask: u64, mut f: impl FnMut(u32) -> u64) -> u64 {
        let w = self.width();
        let mut acc = 0u64;
        for lane in 0..w {
            if mask & (1 << lane) != 0 {
                acc += f(lane);
            }
        }
        self.log_reduce_cost(mask);
        acc
    }

    fn log_reduce_cost(&mut self, mask: u64) {
        if self.g.accounting == Accounting::Full {
            let w = self.width();
            let steps = (w.max(2)).ilog2() as u64;
            self.g.stats.compute_cycles += steps;
            self.g.stats.active_lanes += (mask.count_ones() as u64) * steps;
            self.g.stats.lane_slots += w as u64 * steps;
        }
    }

    // ---- global memory ---------------------------------------------------

    /// SIMD gather: each active lane loads `buf[idx(lane)]`; `sink`
    /// receives `(lane, value)`.
    pub fn load<T: DeviceScalar>(
        &mut self,
        buf: &DeviceBuffer<T>,
        mask: u64,
        mut idx: impl FnMut(u32) -> usize,
        mut sink: impl FnMut(u32, T),
    ) {
        self.g.addr_scratch.clear();
        let w = self.width();
        let base_lane = self.sg_id * w;
        let mut active = 0;
        for lane in 0..w {
            if mask & (1 << lane) != 0 {
                let i = idx(lane);
                self.g.san_note(buf, i, false, false, base_lane + lane);
                if self.g.accounting == Accounting::Full {
                    self.g.addr_scratch.push(buf.addr_of(i));
                }
                sink(lane, buf.load(i));
                active += 1;
            }
        }
        self.g.account_instruction(T::BYTES as u32, false, active);
    }

    /// SIMD scatter: each active lane stores a `(index, value)` pair.
    pub fn store<T: DeviceScalar>(
        &mut self,
        buf: &DeviceBuffer<T>,
        mask: u64,
        mut src: impl FnMut(u32) -> (usize, T),
    ) {
        self.g.addr_scratch.clear();
        let w = self.width();
        let base_lane = self.sg_id * w;
        let mut active = 0;
        for lane in 0..w {
            if mask & (1 << lane) != 0 {
                let (i, v) = src(lane);
                self.g.san_note(buf, i, true, false, base_lane + lane);
                if self.g.accounting == Accounting::Full {
                    self.g.addr_scratch.push(buf.addr_of(i));
                }
                buf.store(i, v);
                active += 1;
            }
        }
        self.g.account_instruction(T::BYTES as u32, false, active);
    }

    /// Uniform (scalar) load broadcast to the subgroup — one transaction.
    pub fn load_uniform<T: DeviceScalar>(&mut self, buf: &DeviceBuffer<T>, i: usize) -> T {
        self.g.addr_scratch.clear();
        // Representative lane: the subgroup's lane 0.
        let base_lane = self.sg_id * self.width();
        self.g.san_note(buf, i, false, false, base_lane);
        if self.g.accounting == Accounting::Full {
            self.g.addr_scratch.push(buf.addr_of(i));
        }
        let v = buf.load(i);
        let w = self.width();
        self.g.account_instruction(T::BYTES as u32, false, w);
        v
    }

    /// Uniform store from one lane.
    pub fn store_uniform<T: DeviceScalar>(&mut self, buf: &DeviceBuffer<T>, i: usize, v: T) {
        self.g.addr_scratch.clear();
        let base_lane = self.sg_id * self.width();
        self.g.san_note(buf, i, true, false, base_lane);
        if self.g.accounting == Accounting::Full {
            self.g.addr_scratch.push(buf.addr_of(i));
        }
        buf.store(i, v);
        self.g.account_instruction(T::BYTES as u32, false, 1);
    }

    fn rmw_impl<T: DeviceScalar>(
        &mut self,
        buf: &DeviceBuffer<T>,
        mask: u64,
        mut src: impl FnMut(u32) -> (usize, T),
        op: impl Fn(&DeviceBuffer<T>, usize, T) -> T,
        mut sink: impl FnMut(u32, T),
    ) {
        self.g.addr_scratch.clear();
        let w = self.width();
        let base_lane = self.sg_id * w;
        let mut active = 0;
        for lane in 0..w {
            if mask & (1 << lane) != 0 {
                let (i, v) = src(lane);
                self.g.san_note(buf, i, true, true, base_lane + lane);
                if self.g.accounting == Accounting::Full {
                    self.g.addr_scratch.push(buf.addr_of(i));
                }
                sink(lane, op(buf, i, v));
                active += 1;
            }
        }
        self.g.account_instruction(T::BYTES as u32, true, active);
    }

    /// SIMD `atomic_or`; `sink` receives the *previous* values (lane, old).
    pub fn atomic_or<T: AtomicInt>(
        &mut self,
        buf: &DeviceBuffer<T>,
        mask: u64,
        src: impl FnMut(u32) -> (usize, T),
        sink: impl FnMut(u32, T),
    ) {
        self.rmw_impl(buf, mask, src, |b, i, v| b.fetch_or(i, v), sink);
    }

    /// SIMD `atomic_and`; `sink` receives previous values.
    pub fn atomic_and<T: AtomicInt>(
        &mut self,
        buf: &DeviceBuffer<T>,
        mask: u64,
        src: impl FnMut(u32) -> (usize, T),
        sink: impl FnMut(u32, T),
    ) {
        self.rmw_impl(buf, mask, src, |b, i, v| b.fetch_and(i, v), sink);
    }

    /// SIMD `atomic_add`; `sink` receives previous values.
    pub fn atomic_add<T: AtomicInt>(
        &mut self,
        buf: &DeviceBuffer<T>,
        mask: u64,
        src: impl FnMut(u32) -> (usize, T),
        sink: impl FnMut(u32, T),
    ) {
        self.rmw_impl(buf, mask, src, |b, i, v| b.fetch_add(i, v), sink);
    }

    /// Subgroup-aggregated reservation on the counter `buf[idx]`: lane
    /// `l` of `mask` asks for `amount(l)` slots, `offsets[l]` receives the
    /// exclusive prefix of the amounts below it, and the lowest active
    /// lane adds the subgroup's total to the counter with *one* atomic,
    /// whose old value (the subgroup's base) is broadcast and returned.
    /// Lane `l` owns `base + offsets[l] .. + amount(l)`. The cost is what
    /// [`exclusive_scan_add`](Self::exclusive_scan_add), a one-lane
    /// [`atomic_add`](Self::atomic_add) and one broadcast slot already
    /// cost. A subgroup asking for nothing issues no atomic (the scan
    /// total is subgroup-uniform) and gets base 0.
    pub fn reserve(
        &mut self,
        buf: &DeviceBuffer<u32>,
        idx: usize,
        mask: u64,
        amount: impl FnMut(u32) -> u32,
        offsets: &mut [u32],
    ) -> u32 {
        let total = self.exclusive_scan_add(mask, amount, offsets);
        if total == 0 {
            return 0;
        }
        let leader = 1u64 << mask.trailing_zeros();
        let mut base = 0;
        self.atomic_add(buf, leader, |_| (idx, total), |_, old| base = old);
        self.compute(1);
        base
    }

    /// Subgroup-aggregated accumulation into the `f32` cell `buf[idx]`:
    /// the values of `mask`'s lanes are summed by a subgroup reduction (in
    /// lane order, so the subgroup's contribution does not depend on the
    /// schedule) and the lowest active lane adds the total with *one*
    /// atomic — [`reserve`](Self::reserve)'s shape for a sum nobody needs
    /// a slot from. An empty `mask` issues no atomic.
    pub fn accumulate_f32(
        &mut self,
        buf: &DeviceBuffer<f32>,
        idx: usize,
        mask: u64,
        mut value: impl FnMut(u32) -> f32,
    ) {
        if mask == 0 {
            return;
        }
        let mut total = 0.0f32;
        for lane in 0..self.width() {
            if mask & (1 << lane) != 0 {
                total += value(lane);
            }
        }
        self.log_reduce_cost(mask);
        let leader = 1u64 << mask.trailing_zeros();
        self.rmw_impl(
            buf,
            leader,
            |_| (idx, total),
            |b, i, v| b.fetch_add_f32(i, v),
            |_, _| {},
        );
    }

    /// SIMD `atomic_min`; `sink` receives previous values.
    pub fn atomic_min<T: AtomicInt>(
        &mut self,
        buf: &DeviceBuffer<T>,
        mask: u64,
        src: impl FnMut(u32) -> (usize, T),
        sink: impl FnMut(u32, T),
    ) {
        self.rmw_impl(buf, mask, src, |b, i, v| b.fetch_min(i, v), sink);
    }

    /// Runs a user lambda once per active lane, giving each lane an
    /// [`ItemCtx`] for accounted memory access. Accesses coalesce across
    /// lanes per static instruction, exactly like a range kernel — this is
    /// how the `advance` primitive executes user functors.
    pub fn lanes(&mut self, mask: u64, mut f: impl FnMut(u32, &mut ItemCtx<'_>)) {
        let account = self.g.accounting == Accounting::Full;
        let mut log = std::mem::take(&mut self.g.lane_log);
        log.clear();
        let w = self.width();
        let base_lane = self.sg_id * w;
        let mut max_compute = 0u64;
        let mut active = 0u32;
        for lane in 0..w {
            if mask & (1 << lane) != 0 {
                let mut item = ItemCtx {
                    global_id: lane as usize,
                    seq: 0,
                    lane_compute: 0,
                    log: if account { Some(&mut log) } else { None },
                    san: self.g.san.as_mut().map(|grp| SanScope {
                        grp,
                        lane: base_lane + lane,
                    }),
                };
                f(lane, &mut item);
                max_compute = max_compute.max(item.lane_compute);
                active += 1;
            }
        }
        if account {
            self.g.stats.compute_cycles += max_compute;
            for (addrs, bytes, kind) in log.per_seq.iter().filter(|(a, _, _)| !a.is_empty()) {
                self.g.addr_scratch.clear();
                self.g.addr_scratch.extend_from_slice(addrs);
                let n = addrs.len() as u32;
                self.g
                    .account_instruction(*bytes, *kind == AccessKind::Atomic, n);
            }
            if active < w {
                // idle lanes still occupy slots for the lambda body
                self.g.stats.lane_slots += (w - active) as u64;
                self.g.stats.active_lanes += active as u64;
            }
        }
        self.g.lane_log = log;
    }

    // ---- local memory ----------------------------------------------------

    /// Per-lane local memory writes.
    pub fn local_scatter(&mut self, mask: u64, mut src: impl FnMut(u32) -> (usize, u32)) {
        let w = self.width();
        for lane in 0..w {
            if mask & (1 << lane) != 0 {
                let (i, v) = src(lane);
                self.g.local[i] = v;
            }
        }
        if self.g.accounting == Accounting::Full {
            self.g.stats.local_accesses += mask.count_ones() as u64;
            self.g.stats.compute_cycles += 1;
            self.g.stats.active_lanes += mask.count_ones() as u64;
            self.g.stats.lane_slots += w as u64;
        }
    }

    /// Per-lane local memory reads.
    pub fn local_gather(
        &mut self,
        mask: u64,
        mut idx: impl FnMut(u32) -> usize,
        mut sink: impl FnMut(u32, u32),
    ) {
        let w = self.width();
        for lane in 0..w {
            if mask & (1 << lane) != 0 {
                let v = self.g.local[idx(lane)];
                sink(lane, v);
            }
        }
        if self.g.accounting == Accounting::Full {
            self.g.stats.local_accesses += mask.count_ones() as u64;
            self.g.stats.compute_cycles += 1;
            self.g.stats.active_lanes += mask.count_ones() as u64;
            self.g.stats.lane_slots += w as u64;
        }
    }

    /// Uniform local read (e.g. reading a counter all lanes share).
    pub fn local_read(&mut self, i: usize) -> u32 {
        self.g.local_read(i)
    }

    /// Uniform local write.
    pub fn local_write(&mut self, i: usize, v: u32) {
        self.g.local_write(i, v)
    }
}

// ---------------------------------------------------------------------------
// Per-work-item execution (range kernels)
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AccessKind {
    Read,
    Write,
    Atomic,
}

/// Per-subgroup log of lane accesses grouped by static instruction index,
/// so a range kernel's per-lane accesses coalesce across lanes like one
/// SIMD instruction.
#[derive(Default)]
struct AccessLog {
    /// `per_seq[s]` holds `(elem_addr, elem_bytes)` for instruction `s`.
    per_seq: Vec<(Vec<u64>, u32, AccessKind)>,
}

impl AccessLog {
    fn clear(&mut self) {
        for (v, _, _) in &mut self.per_seq {
            v.clear();
        }
    }

    fn record(&mut self, seq: usize, addr: u64, bytes: u32, kind: AccessKind) {
        while self.per_seq.len() <= seq {
            self.per_seq.push((Vec::new(), 0, AccessKind::Read));
        }
        let slot = &mut self.per_seq[seq];
        slot.0.push(addr);
        slot.1 = bytes;
        slot.2 = kind;
    }
}

/// Per-work-item context for range kernels (`Queue::parallel_for`).
pub struct ItemCtx<'l> {
    /// Global linear id of this work-item.
    pub global_id: usize,
    seq: usize,
    lane_compute: u64,
    log: Option<&'l mut AccessLog>,
    san: Option<SanScope<'l>>,
}

impl<'l> ItemCtx<'l> {
    #[inline]
    fn note(&mut self, addr: u64, bytes: u32, kind: AccessKind) {
        let seq = self.seq;
        self.seq += 1;
        if let Some(log) = self.log.as_deref_mut() {
            log.record(seq, addr, bytes, kind);
        }
    }

    /// Sanitizer shadow-record; must run before `addr_of` (whose
    /// always-on bounds check panics on the OOB access being classified).
    #[inline]
    fn pre<T: DeviceScalar>(&mut self, buf: &DeviceBuffer<T>, i: usize, write: bool, atomic: bool) {
        if let Some(s) = self.san.as_mut() {
            s.grp.access(buf, i, write, atomic, s.lane);
        }
    }

    /// Loads `buf[i]`.
    #[inline]
    pub fn load<T: DeviceScalar>(&mut self, buf: &DeviceBuffer<T>, i: usize) -> T {
        self.pre(buf, i, false, false);
        self.note(buf.addr_of(i), T::BYTES as u32, AccessKind::Read);
        buf.load(i)
    }

    /// Stores `buf[i] = v`.
    #[inline]
    pub fn store<T: DeviceScalar>(&mut self, buf: &DeviceBuffer<T>, i: usize, v: T) {
        self.pre(buf, i, true, false);
        self.note(buf.addr_of(i), T::BYTES as u32, AccessKind::Write);
        buf.store(i, v);
    }

    /// Relaxed *atomic* load of `buf[i]` — the idiom for reading a cell
    /// that other lanes may be writing concurrently (all device memory is
    /// atomic-backed, so this costs the same as `load`; the distinction
    /// is declared intent, which the sanitizer's race detector honours).
    #[inline]
    pub fn load_atomic<T: DeviceScalar>(&mut self, buf: &DeviceBuffer<T>, i: usize) -> T {
        self.pre(buf, i, false, true);
        self.note(buf.addr_of(i), T::BYTES as u32, AccessKind::Read);
        buf.load(i)
    }

    /// Relaxed atomic store counterpart of [`ItemCtx::load_atomic`].
    #[inline]
    pub fn store_atomic<T: DeviceScalar>(&mut self, buf: &DeviceBuffer<T>, i: usize, v: T) {
        self.pre(buf, i, true, true);
        self.note(buf.addr_of(i), T::BYTES as u32, AccessKind::Write);
        buf.store(i, v);
    }

    #[inline]
    pub fn fetch_add<T: AtomicInt>(&mut self, buf: &DeviceBuffer<T>, i: usize, v: T) -> T {
        self.pre(buf, i, true, true);
        self.note(buf.addr_of(i), T::BYTES as u32, AccessKind::Atomic);
        buf.fetch_add(i, v)
    }

    #[inline]
    pub fn fetch_min<T: AtomicInt>(&mut self, buf: &DeviceBuffer<T>, i: usize, v: T) -> T {
        self.pre(buf, i, true, true);
        self.note(buf.addr_of(i), T::BYTES as u32, AccessKind::Atomic);
        buf.fetch_min(i, v)
    }

    #[inline]
    pub fn fetch_max<T: AtomicInt>(&mut self, buf: &DeviceBuffer<T>, i: usize, v: T) -> T {
        self.pre(buf, i, true, true);
        self.note(buf.addr_of(i), T::BYTES as u32, AccessKind::Atomic);
        buf.fetch_max(i, v)
    }

    #[inline]
    pub fn fetch_or<T: AtomicInt>(&mut self, buf: &DeviceBuffer<T>, i: usize, v: T) -> T {
        self.pre(buf, i, true, true);
        self.note(buf.addr_of(i), T::BYTES as u32, AccessKind::Atomic);
        buf.fetch_or(i, v)
    }

    #[inline]
    pub fn fetch_and<T: AtomicInt>(&mut self, buf: &DeviceBuffer<T>, i: usize, v: T) -> T {
        self.pre(buf, i, true, true);
        self.note(buf.addr_of(i), T::BYTES as u32, AccessKind::Atomic);
        buf.fetch_and(i, v)
    }

    #[inline]
    pub fn fetch_min_f32(&mut self, buf: &DeviceBuffer<f32>, i: usize, v: f32) -> f32 {
        self.pre(buf, i, true, true);
        self.note(buf.addr_of(i), 4, AccessKind::Atomic);
        buf.fetch_min_f32(i, v)
    }

    #[inline]
    pub fn fetch_add_f32(&mut self, buf: &DeviceBuffer<f32>, i: usize, v: f32) -> f32 {
        self.pre(buf, i, true, true);
        self.note(buf.addr_of(i), 4, AccessKind::Atomic);
        buf.fetch_add_f32(i, v)
    }

    /// Compare-exchange; returns `Ok(old)` on success.
    #[inline]
    pub fn compare_exchange<T: AtomicInt>(
        &mut self,
        buf: &DeviceBuffer<T>,
        i: usize,
        current: T,
        new: T,
    ) -> Result<T, T> {
        self.pre(buf, i, true, true);
        self.note(buf.addr_of(i), T::BYTES as u32, AccessKind::Atomic);
        buf.compare_exchange(i, current, new)
    }

    /// Charges `cycles` of per-lane compute work.
    #[inline]
    pub fn compute(&mut self, cycles: u64) {
        self.lane_compute += cycles;
    }
}

/// Executes the global id range `[start, end)` on one workgroup context,
/// chunking into subgroups and coalescing per static instruction.
pub(crate) fn run_range_group(
    ctx: &mut GroupCtx<'_>,
    start: usize,
    end: usize,
    f: &(impl Fn(&mut ItemCtx<'_>, usize) + ?Sized),
) {
    let sg = ctx.sg_size as usize;
    let mut log = AccessLog::default();
    let account = ctx.accounting == Accounting::Full;
    let mut chunk = start;
    while chunk < end {
        let lanes = sg.min(end - chunk);
        log.clear();
        let mut max_compute = 0u64;
        for l in 0..lanes {
            let mut item = ItemCtx {
                global_id: chunk + l,
                seq: 0,
                lane_compute: 0,
                log: if account { Some(&mut log) } else { None },
                san: ctx.san.as_mut().map(|grp| SanScope {
                    grp,
                    lane: (chunk + l - start) as u32,
                }),
            };
            f(&mut item, chunk + l);
            max_compute = max_compute.max(item.lane_compute);
        }
        if account {
            ctx.stats.compute_cycles += max_compute;
            for (addrs, bytes, kind) in log.per_seq.iter().filter(|(a, _, _)| !a.is_empty()) {
                ctx.addr_scratch.clear();
                ctx.addr_scratch.extend_from_slice(addrs);
                let active = addrs.len() as u32;
                ctx.account_instruction(*bytes, *kind == AccessKind::Atomic, active);
            }
            // Tail underutilization still occupies full lane slots.
            if lanes < sg {
                ctx.stats.lane_slots += (sg - lanes) as u64;
            }
        }
        chunk += lanes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::{AllocKind, MemTracker};
    use std::sync::Arc;

    fn buf_u32(n: usize) -> DeviceBuffer<u32> {
        DeviceBuffer::new(Arc::new(MemTracker::new(1 << 30)), n, AllocKind::Device).unwrap()
    }

    fn cfg(groups: usize, wg: u32, sg: u32) -> LaunchConfig {
        LaunchConfig::new("t", groups, wg, sg).with_local_mem(1024)
    }

    fn ctx_off(cfg: &LaunchConfig) -> GroupCtx<'static> {
        GroupCtx::new(0, cfg, Accounting::Off, None, 128, None)
    }

    fn ctx_acct(cfg: &LaunchConfig) -> GroupCtx<'static> {
        GroupCtx::new(0, cfg, Accounting::Full, None, 128, None)
    }

    #[test]
    fn ballot_and_masks() {
        let c = cfg(1, 32, 8);
        let mut g = ctx_off(&c);
        g.for_each_subgroup(|sg| {
            let m = sg.ballot(|lane| lane % 2 == 0);
            assert_eq!(m, 0b0101_0101);
            assert_eq!(sg.full_mask(), 0xFF);
        });
    }

    #[test]
    fn exclusive_scan_matches_reference() {
        let c = cfg(1, 8, 8);
        let mut g = ctx_off(&c);
        g.for_each_subgroup(|sg| {
            let mut out = [0u32; MAX_SUBGROUP];
            let total = sg.exclusive_scan_add(0xFF, |lane| lane, &mut out);
            assert_eq!(total, 28);
            assert_eq!(&out[..8], &[0, 0, 1, 3, 6, 10, 15, 21]);
        });
    }

    #[test]
    fn scan_respects_mask() {
        let c = cfg(1, 8, 8);
        let mut g = ctx_off(&c);
        g.for_each_subgroup(|sg| {
            let mut out = [0u32; MAX_SUBGROUP];
            // only lanes 1 and 3 active, each contributing 5
            let total = sg.exclusive_scan_add(0b1010, |_| 5, &mut out);
            assert_eq!(total, 10);
            assert_eq!(out[1], 0);
            assert_eq!(out[3], 5);
        });
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let c = cfg(1, 8, 8);
        let b = buf_u32(16);
        let mut g = ctx_off(&c);
        g.for_each_subgroup(|sg| {
            let m = sg.full_mask();
            sg.store(&b, m, |lane| (lane as usize, lane * 10));
            let mut got = [0u32; 8];
            sg.load(
                &b,
                m,
                |lane| lane as usize,
                |lane, v| got[lane as usize] = v,
            );
            assert_eq!(got, [0, 10, 20, 30, 40, 50, 60, 70]);
        });
    }

    #[test]
    fn atomic_or_returns_old() {
        let c = cfg(1, 8, 8);
        let b = buf_u32(1);
        let mut g = ctx_off(&c);
        g.for_each_subgroup(|sg| {
            let mut olds = vec![];
            sg.atomic_or(&b, 0b11, |lane| (0, 1u32 << lane), |_, old| olds.push(old));
            // lanes run in order in the simulator: old values 0 then 1.
            assert_eq!(olds, vec![0, 1]);
        });
        assert_eq!(b.load(0), 0b11);
    }

    #[test]
    fn accounting_counts_transactions_and_divergence() {
        let c = cfg(1, 32, 8);
        let b = buf_u32(1024);
        let mut g = ctx_acct(&c);
        g.for_each_subgroup(|sg| {
            // 4 active lanes of 8, consecutive addresses: 1 transaction.
            sg.load(&b, 0b1111, |lane| lane as usize, |_, _| {});
        });
        let s = g.take_stats();
        assert_eq!(
            s.transactions(),
            4,
            "one tx per subgroup (4 subgroups of 8 in wg of 32)"
        );
        assert!(s.simd_efficiency() < 1.0);
        assert!(s.dram_bytes > 0);
    }

    #[test]
    fn atomic_conflicts_detected() {
        let c = cfg(1, 8, 8);
        let b = buf_u32(8);
        let mut g = ctx_acct(&c);
        let mut first = true;
        g.for_each_subgroup(|sg| {
            if first {
                // all 8 lanes hammer element 0 -> 7 conflicts
                sg.atomic_add(&b, sg.full_mask(), |_| (0, 1u32), |_, _| {});
                first = false;
            }
        });
        let s = g.take_stats();
        assert_eq!(s.atomics, 8);
        assert!(s.atomic_conflict_cycles >= 7 * super::ATOMIC_CONFLICT_CYCLES);
    }

    #[test]
    fn reserve_offsets_are_the_exclusive_prefix() {
        let c = cfg(1, 8, 8);
        let counter = buf_u32(2);
        counter.store(1, 100);
        let mut g = ctx_off(&c);
        g.for_each_subgroup(|sg| {
            let mut offs = [0u32; MAX_SUBGROUP];
            // lanes 1, 2, 5, 7 ask for lane + 1 slots each
            let mask = 0b1010_0110;
            let base = sg.reserve(&counter, 1, mask, |lane| lane + 1, &mut offs);
            assert_eq!(base, 100);
            assert_eq!((offs[1], offs[2], offs[5], offs[7]), (0, 2, 5, 11));
        });
        assert_eq!(counter.load(1), 100 + 2 + 3 + 6 + 8);
        assert_eq!(counter.load(0), 0, "only the addressed counter moves");
    }

    #[test]
    fn reserve_ranges_of_concurrent_subgroups_tile_the_counter() {
        let c = cfg(4, 32, 8);
        let counter = buf_u32(1);
        let mut ranges = Vec::new();
        for group in 0..4 {
            let mut g = GroupCtx::new(group, &c, Accounting::Off, None, 128, None);
            g.for_each_subgroup(|sg| {
                let mut offs = [0u32; MAX_SUBGROUP];
                let salt = sg.global_sg_index() as u32 * 3;
                let want = |lane: u32| (salt + lane) % 5;
                let mask = 0b1101_1011;
                let base = sg.reserve(&counter, 0, mask, want, &mut offs);
                for lane in (0..8).filter(|l| mask >> l & 1 != 0) {
                    ranges.push((base + offs[lane as usize], want(lane)));
                }
            });
        }
        ranges.retain(|&(_, len)| len > 0);
        ranges.sort_unstable();
        let mut next = 0;
        for (lo, len) in ranges {
            assert_eq!(lo, next, "ranges are disjoint and leave no gap");
            next = lo + len;
        }
        assert_eq!(next, counter.load(0), "ranges cover the counter");
    }

    #[test]
    fn reserve_costs_one_atomic_and_no_conflict() {
        let c = cfg(1, 8, 8);
        let counter = buf_u32(1);
        let mut g = ctx_acct(&c);
        let mut calls = 0;
        g.for_each_subgroup(|sg| {
            let mut offs = [0u32; MAX_SUBGROUP];
            sg.reserve(&counter, 0, sg.full_mask(), |_| 2, &mut offs);
            calls += 1;
        });
        let with = g.take_stats();
        assert_eq!(with.atomics, calls, "one atomic per call, not per lane");
        assert_eq!(with.atomic_conflict_cycles, 0);

        // No new constant: scan + one-lane atomic + one broadcast slot.
        let mut g = ctx_acct(&c);
        g.for_each_subgroup(|sg| {
            let mut offs = [0u32; MAX_SUBGROUP];
            let total = sg.exclusive_scan_add(sg.full_mask(), |_| 2, &mut offs);
            sg.atomic_add(&counter, 1, |_| (0, total), |_, _| {});
            sg.compute(1);
        });
        assert_eq!(with, g.take_stats());

        // A subgroup that asks for nothing issues no atomic at all.
        let mut g = ctx_acct(&c);
        g.for_each_subgroup(|sg| {
            let mut offs = [0u32; MAX_SUBGROUP];
            assert_eq!(sg.reserve(&counter, 0, 0b1010, |_| 0, &mut offs), 0);
        });
        assert_eq!(g.take_stats().atomics, 0);
    }

    #[test]
    fn accumulate_f32_adds_the_lane_sum_with_one_atomic() {
        let c = cfg(1, 16, 8);
        let cell: DeviceBuffer<f32> =
            DeviceBuffer::new(Arc::new(MemTracker::new(1 << 30)), 2, AllocKind::Device).unwrap();
        cell.store(1, 10.0);
        let mut g = ctx_acct(&c);
        g.for_each_subgroup(|sg| {
            // lanes 1, 2, 5 contribute 0.5, 1.0, 2.5
            sg.accumulate_f32(&cell, 1, 0b0010_0110, |lane| lane as f32 * 0.5);
            sg.accumulate_f32(&cell, 1, 0, |_| 100.0);
        });
        assert_eq!(cell.load(1), 10.0 + 2.0 * 4.0);
        assert_eq!(cell.load(0), 0.0, "only the addressed cell moves");
        let stats = g.take_stats();
        assert_eq!(stats.atomics, 2, "one per subgroup with an active lane");
        assert_eq!(stats.atomic_conflict_cycles, 0);
    }

    #[test]
    fn local_memory_roundtrip() {
        let c = cfg(1, 8, 8);
        let mut g = ctx_off(&c);
        g.for_each_subgroup(|sg| {
            sg.local_scatter(0xFF, |lane| (lane as usize, lane + 100));
            let mut sum = 0;
            sg.local_gather(0xFF, |lane| lane as usize, |_, v| sum += v);
            assert_eq!(sum, (100..108).sum::<u32>());
        });
    }

    #[test]
    fn range_kernel_coalesces_per_instruction() {
        let c = cfg(1, 32, 8);
        let src = buf_u32(256);
        let dst = buf_u32(256);
        let mut g = ctx_acct(&c);
        run_range_group(&mut g, 0, 32, &|item: &mut ItemCtx<'_>, i| {
            let v = item.load(&src, i);
            item.store(&dst, i, v + 1);
        });
        let s = g.take_stats();
        // 32 items in subgroups of 8; 8 consecutive u32 = 32B fit in one
        // 128B line but lines are per flush-group: 4 subgroups x 2 instrs,
        // consecutive addresses -> 1 tx each = 8 txs.
        assert_eq!(s.transactions(), 8);
        assert_eq!(dst.load(5), 1);
    }

    #[test]
    fn range_kernel_tail_partial_subgroup() {
        let c = cfg(1, 32, 8);
        let b = buf_u32(64);
        let mut g = ctx_acct(&c);
        run_range_group(&mut g, 0, 11, &|item: &mut ItemCtx<'_>, i| {
            item.store(&b, i, 7);
        });
        assert_eq!(b.load(10), 7);
        assert_eq!(b.load(11), 0);
        let s = g.take_stats();
        assert!(s.simd_efficiency() < 1.0, "tail lanes idle");
    }

    #[test]
    fn lanes_lambda_accounts_and_executes() {
        let c = cfg(1, 8, 8);
        let b = buf_u32(64);
        let mut g = ctx_acct(&c);
        g.for_each_subgroup(|sg| {
            sg.lanes(0b1111, |lane, item| {
                let old = item.load(&b, lane as usize);
                item.store(&b, lane as usize, old + lane + 1);
                item.compute(3);
            });
        });
        let s = g.take_stats();
        assert_eq!(b.load(2), 3);
        assert!(s.transactions() >= 2, "load + store instructions");
        assert!(s.compute_cycles >= 3);
        assert!(s.simd_efficiency() < 1.0, "half the lanes idle");
    }

    #[test]
    fn full_mask_widths() {
        assert_eq!(full_mask(8), 0xFF);
        assert_eq!(full_mask(32), 0xFFFF_FFFF);
        assert_eq!(full_mask(64), u64::MAX);
    }
}
