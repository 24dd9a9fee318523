//! Simulated device memory.
//!
//! [`DeviceBuffer<T>`] is typed device memory with a *simulated* global
//! address (used by the coalescing and cache models) backed by real host
//! memory. All element access goes through relaxed atomics so that
//! workgroups running on different host threads may race through atomics
//! exactly the way GPU kernels do, without UB.
//!
//! Buffers are allocated from a [`MemTracker`] that enforces the device's
//! VRAM capacity — exceeding it yields [`SimError::OutOfMemory`], which is
//! how the paper's OOM entries (Gunrock on road-USA BC, etc.) reproduce.

use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::atomic::{
    AtomicBool, AtomicI32, AtomicI64, AtomicU32, AtomicU64, AtomicU8, Ordering,
};
use std::sync::{Arc, Weak};

use parking_lot::Mutex;

use crate::error::SimError;

/// Scalar types storable in device memory. All are accessed atomically
/// (relaxed) so concurrent kernel lanes never cause UB.
pub trait DeviceScalar: Copy + Send + Sync + Default + 'static {
    /// Size of the element in bytes (4 or 8).
    const BYTES: usize;
    /// # Safety
    /// `p` must be valid, aligned to `BYTES` and only accessed atomically.
    unsafe fn atomic_load(p: *const u8) -> Self;
    /// # Safety
    /// Same contract as [`DeviceScalar::atomic_load`].
    unsafe fn atomic_store(p: *const u8, v: Self);
}

macro_rules! impl_scalar {
    ($t:ty, $at:ty, $bytes:expr) => {
        impl DeviceScalar for $t {
            const BYTES: usize = $bytes;
            unsafe fn atomic_load(p: *const u8) -> Self {
                (*(p as *const $at)).load(Ordering::Relaxed)
            }
            unsafe fn atomic_store(p: *const u8, v: Self) {
                (*(p as *const $at)).store(v, Ordering::Relaxed);
            }
        }
    };
}

impl_scalar!(u8, AtomicU8, 1);
impl_scalar!(u32, AtomicU32, 4);
impl_scalar!(u64, AtomicU64, 8);
impl_scalar!(i32, AtomicI32, 4);
impl_scalar!(i64, AtomicI64, 8);

impl DeviceScalar for f32 {
    const BYTES: usize = 4;
    unsafe fn atomic_load(p: *const u8) -> Self {
        f32::from_bits((*(p as *const AtomicU32)).load(Ordering::Relaxed))
    }
    unsafe fn atomic_store(p: *const u8, v: Self) {
        (*(p as *const AtomicU32)).store(v.to_bits(), Ordering::Relaxed);
    }
}

impl DeviceScalar for f64 {
    const BYTES: usize = 8;
    unsafe fn atomic_load(p: *const u8) -> Self {
        f64::from_bits((*(p as *const AtomicU64)).load(Ordering::Relaxed))
    }
    unsafe fn atomic_store(p: *const u8, v: Self) {
        (*(p as *const AtomicU64)).store(v.to_bits(), Ordering::Relaxed);
    }
}

/// Integer scalars additionally supporting read-modify-write atomics
/// (`fetch_or` / `fetch_and` are what the bitmap frontier is built on).
pub trait AtomicInt: DeviceScalar {
    /// # Safety
    /// Same contract as [`DeviceScalar::atomic_load`].
    unsafe fn atomic_fetch_add(p: *const u8, v: Self) -> Self;
    /// # Safety
    /// Same contract as [`DeviceScalar::atomic_load`].
    unsafe fn atomic_fetch_min(p: *const u8, v: Self) -> Self;
    /// # Safety
    /// Same contract as [`DeviceScalar::atomic_load`].
    unsafe fn atomic_fetch_max(p: *const u8, v: Self) -> Self;
    /// # Safety
    /// Same contract as [`DeviceScalar::atomic_load`].
    unsafe fn atomic_fetch_or(p: *const u8, v: Self) -> Self;
    /// # Safety
    /// Same contract as [`DeviceScalar::atomic_load`].
    unsafe fn atomic_fetch_and(p: *const u8, v: Self) -> Self;
    /// # Safety
    /// Same contract as [`DeviceScalar::atomic_load`].
    unsafe fn atomic_cas(p: *const u8, current: Self, new: Self) -> Result<Self, Self>;
}

macro_rules! impl_atomic_int {
    ($t:ty, $at:ty) => {
        impl AtomicInt for $t {
            unsafe fn atomic_fetch_add(p: *const u8, v: Self) -> Self {
                (*(p as *const $at)).fetch_add(v, Ordering::Relaxed)
            }
            unsafe fn atomic_fetch_min(p: *const u8, v: Self) -> Self {
                (*(p as *const $at)).fetch_min(v, Ordering::Relaxed)
            }
            unsafe fn atomic_fetch_max(p: *const u8, v: Self) -> Self {
                (*(p as *const $at)).fetch_max(v, Ordering::Relaxed)
            }
            unsafe fn atomic_fetch_or(p: *const u8, v: Self) -> Self {
                (*(p as *const $at)).fetch_or(v, Ordering::Relaxed)
            }
            unsafe fn atomic_fetch_and(p: *const u8, v: Self) -> Self {
                (*(p as *const $at)).fetch_and(v, Ordering::Relaxed)
            }
            unsafe fn atomic_cas(p: *const u8, current: Self, new: Self) -> Result<Self, Self> {
                (*(p as *const $at)).compare_exchange(
                    current,
                    new,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                )
            }
        }
    };
}

impl_atomic_int!(u8, AtomicU8);
impl_atomic_int!(u32, AtomicU32);
impl_atomic_int!(u64, AtomicU64);
impl_atomic_int!(i32, AtomicI32);
impl_atomic_int!(i64, AtomicI64);

/// Where a buffer lives, mirroring SYCL USM allocation kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum AllocKind {
    /// `malloc_device`: device-resident.
    Device,
    /// `malloc_shared` (USM): automatically migrated; slightly higher
    /// first-touch cost in the model.
    Shared,
}

/// Allocation-ledger entry: enough metadata to name any simulated address
/// after the fact, even once the owning buffer is gone (addresses are
/// monotonic and never reused, so dead entries stay resolvable).
#[derive(Debug)]
pub(crate) struct LedgerEntry {
    pub(crate) bytes: u64,
    pub(crate) gen: u64,
    pub(crate) kind: AllocKind,
    pub(crate) live: Arc<AtomicBool>,
    pub(crate) storage: Weak<RawStorage>,
}

/// Tracks VRAM usage for one device and hands out simulated addresses.
#[derive(Debug)]
pub struct MemTracker {
    capacity: u64,
    /// Effective-capacity cap below `capacity` (threshold OOM injection);
    /// `u64::MAX` means "no soft limit".
    soft_limit: AtomicU64,
    used: AtomicU64,
    peak: AtomicU64,
    next_addr: AtomicU64,
    generation: AtomicU64,
    release_underflows: AtomicU64,
    ledger: Mutex<BTreeMap<u64, LedgerEntry>>,
}

impl MemTracker {
    pub fn new(capacity: u64) -> Self {
        MemTracker {
            capacity,
            soft_limit: AtomicU64::new(u64::MAX),
            used: AtomicU64::new(0),
            peak: AtomicU64::new(0),
            // Leave a zero page unused so address 0 never appears.
            next_addr: AtomicU64::new(4096),
            generation: AtomicU64::new(0),
            release_underflows: AtomicU64::new(0),
            ledger: Mutex::new(BTreeMap::new()),
        }
    }

    /// 256-B allocator granularity; used/peak/release all charge this.
    pub(crate) fn aligned(bytes: u64) -> u64 {
        (bytes + 255) & !255
    }

    /// Reserves `bytes`, failing when capacity would be exceeded.
    /// Returns the simulated base address. The amount charged against
    /// capacity is the 256-B-aligned size — the same granularity the
    /// address space advances by — so reserve/release stay symmetric.
    pub fn reserve(&self, bytes: u64) -> Result<u64, SimError> {
        let charged = Self::aligned(bytes);
        let capacity = self.effective_capacity();
        let mut cur = self.used.load(Ordering::Relaxed);
        loop {
            let new = cur + charged;
            if new > capacity {
                return Err(SimError::OutOfMemory {
                    requested: charged,
                    used: cur,
                    capacity,
                });
            }
            match self
                .used
                .compare_exchange(cur, new, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => {
                    self.peak.fetch_max(new, Ordering::Relaxed);
                    break;
                }
                Err(actual) => cur = actual,
            }
        }
        Ok(self
            .next_addr
            .fetch_add(charged.max(256), Ordering::Relaxed))
    }

    /// Returns `bytes` to the pool, saturating at zero. An underflow
    /// (releasing more than is outstanding) is an accounting bug; it is
    /// counted for the sanitizer instead of silently wrapping the counter
    /// around to ~2^64 and wedging every later allocation into OOM.
    pub fn release(&self, bytes: u64) {
        let mut underflowed = false;
        let _ = self
            .used
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |cur| {
                underflowed = cur < bytes;
                Some(cur.saturating_sub(bytes))
            });
        if underflowed {
            self.release_underflows.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// How many `release` calls would have wrapped below zero.
    pub fn release_underflows(&self) -> u64 {
        self.release_underflows.load(Ordering::Relaxed)
    }

    /// Reads and resets the underflow counter (sanitizer drains this
    /// once per kernel launch).
    pub(crate) fn drain_release_underflows(&self) -> u64 {
        self.release_underflows.swap(0, Ordering::Relaxed)
    }

    pub(crate) fn next_generation(&self) -> u64 {
        self.generation.fetch_add(1, Ordering::Relaxed) + 1
    }

    pub(crate) fn register(&self, base_addr: u64, entry: LedgerEntry) {
        self.ledger.lock().insert(base_addr, entry);
    }

    /// Resolves a simulated address to (kind, base address, generation)
    /// of the allocation containing it, live or dead.
    pub(crate) fn locate(&self, addr: u64) -> Option<(AllocKind, u64, u64)> {
        let ledger = self.ledger.lock();
        let (&base, entry) = ledger.range(..=addr).next_back()?;
        let extent = Self::aligned(entry.bytes).max(256);
        (addr < base + extent).then_some((entry.kind, base, entry.gen))
    }

    /// All currently live allocations with their backing storage (for
    /// sanitizer memory snapshots).
    pub(crate) fn live_allocations(&self) -> Vec<(u64, AllocKind, Arc<RawStorage>)> {
        self.ledger
            .lock()
            .iter()
            .filter(|(_, e)| e.live.load(Ordering::Relaxed))
            .filter_map(|(&base, e)| e.storage.upgrade().map(|s| (base, e.kind, s)))
            .collect()
    }

    pub fn used(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }

    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Caps allocations below physical capacity (threshold OOM injection);
    /// `None` removes the cap.
    pub fn set_soft_limit(&self, bytes: Option<u64>) {
        self.soft_limit
            .store(bytes.unwrap_or(u64::MAX), Ordering::Relaxed);
    }

    /// Capacity allocations are checked against: `min(capacity, soft limit)`.
    pub fn effective_capacity(&self) -> u64 {
        self.capacity.min(self.soft_limit.load(Ordering::Relaxed))
    }

    /// Recomputes `used` from the set of live ledger entries and folds it
    /// into `peak`. After a checkpoint restore the incremental counters can
    /// have drifted (saturated releases clamp at zero and drop bytes);
    /// the ledger is the ground truth.
    pub fn recompute_from_ledger(&self) {
        let ledger = self.ledger.lock();
        let used: u64 = ledger
            .values()
            .filter(|e| e.live.load(Ordering::Relaxed))
            .map(|e| Self::aligned(e.bytes))
            .sum();
        self.used.store(used, Ordering::Relaxed);
        self.peak.fetch_max(used, Ordering::Relaxed);
    }

    pub fn reset_peak(&self) {
        self.peak
            .store(self.used.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

/// Word-aligned raw backing storage (always a whole number of u64 words so
/// any 4- or 8-byte element is aligned).
pub(crate) struct RawStorage {
    words: Box<[AtomicU64]>,
}

// SAFETY: all access goes through atomics.
unsafe impl Send for RawStorage {}
unsafe impl Sync for RawStorage {}

impl RawStorage {
    fn zeroed(bytes: usize) -> Self {
        let words = bytes.div_ceil(8);
        let mut v = Vec::with_capacity(words);
        v.resize_with(words, || AtomicU64::new(0));
        RawStorage {
            words: v.into_boxed_slice(),
        }
    }

    fn base(&self) -> *const u8 {
        self.words.as_ptr() as *const u8
    }

    /// Word-level copy of the contents (sanitizer snapshots).
    pub(crate) fn snapshot_words(&self) -> Vec<u64> {
        self.words
            .iter()
            .map(|w| w.load(Ordering::Relaxed))
            .collect()
    }

    /// Writes a snapshot back over the contents.
    pub(crate) fn restore_words(&self, words: &[u64]) {
        for (dst, &src) in self.words.iter().zip(words) {
            dst.store(src, Ordering::Relaxed);
        }
    }
}

impl std::fmt::Debug for RawStorage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RawStorage({} words)", self.words.len())
    }
}

/// Typed simulated device memory.
///
/// Cheap host-side accessors (`get`/`set`/`to_vec`) exist for setup and
/// verification; kernels access buffers through the execution contexts in
/// [`crate::exec`], which add transaction accounting on top of the same
/// primitives exposed here as `load`/`store`/`fetch_*`.
pub struct DeviceBuffer<T: DeviceScalar> {
    storage: Arc<RawStorage>,
    tracker: Arc<MemTracker>,
    base_addr: u64,
    len: usize,
    kind: AllocKind,
    /// Allocation generation tag (1-based, unique per device).
    gen: u64,
    /// Shared liveness flag: cleared when the owning buffer drops, so
    /// dangling [`DeviceBuffer::alias`] views are detectable.
    live: Arc<AtomicBool>,
    /// Only the owning buffer releases tracker bytes and clears `live`.
    owned: bool,
    /// Aligned byte count charged at allocation (released on drop).
    charged: u64,
    _pd: PhantomData<T>,
}

impl<T: DeviceScalar> DeviceBuffer<T> {
    pub(crate) fn new(
        tracker: Arc<MemTracker>,
        len: usize,
        kind: AllocKind,
    ) -> Result<Self, SimError> {
        let bytes = (len * T::BYTES) as u64;
        let base_addr = tracker.reserve(bytes)?;
        let storage = Arc::new(RawStorage::zeroed(len * T::BYTES));
        let live = Arc::new(AtomicBool::new(true));
        let gen = tracker.next_generation();
        tracker.register(
            base_addr,
            LedgerEntry {
                bytes,
                gen,
                kind,
                live: live.clone(),
                storage: Arc::downgrade(&storage),
            },
        );
        Ok(DeviceBuffer {
            storage,
            tracker,
            base_addr,
            len,
            kind,
            gen,
            live,
            owned: true,
            charged: MemTracker::aligned(bytes),
            _pd: PhantomData,
        })
    }

    /// A non-owning view of the same allocation, modelling a raw device
    /// pointer that outlives its allocation. The view shares storage (so
    /// the simulation itself never has UB) but does not keep the
    /// allocation *live*: once the owning buffer drops, any access
    /// through the view is a use-after-free that the sanitizer reports
    /// via the allocation's generation tag.
    pub fn alias(&self) -> DeviceBuffer<T> {
        DeviceBuffer {
            storage: Arc::clone(&self.storage),
            tracker: Arc::clone(&self.tracker),
            base_addr: self.base_addr,
            len: self.len,
            kind: self.kind,
            gen: self.gen,
            live: Arc::clone(&self.live),
            owned: false,
            charged: 0,
            _pd: PhantomData,
        }
    }

    /// False once the owning buffer has been dropped.
    pub fn is_live(&self) -> bool {
        self.live.load(Ordering::Relaxed)
    }

    /// Allocation generation tag (unique per device, 1-based).
    pub fn generation(&self) -> u64 {
        self.gen
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn kind(&self) -> AllocKind {
        self.kind
    }

    /// Size in bytes.
    pub fn bytes(&self) -> u64 {
        (self.len * T::BYTES) as u64
    }

    /// Host-side word-level copy of the contents (checkpointing). No
    /// kernels run and nothing is committed to the clock or profiler.
    pub fn snapshot_words(&self) -> Vec<u64> {
        self.storage.snapshot_words()
    }

    /// Writes a [`DeviceBuffer::snapshot_words`] image back over the
    /// contents (checkpoint restore). Host-side, like the snapshot.
    pub fn restore_words(&self, words: &[u64]) {
        self.storage.restore_words(words)
    }

    /// Always-on bounds check (release builds included) whose panic
    /// message names the allocation kind and length, so a tier-1 failure
    /// is diagnosable without a debug rebuild.
    #[inline]
    #[track_caller]
    fn check_index(&self, i: usize) {
        if i >= self.len {
            panic!(
                "device buffer index {i} out of bounds (len {}, kind {:?})",
                self.len, self.kind
            );
        }
    }

    /// Simulated global address of element `i` (feeds the cache model).
    #[inline]
    #[track_caller]
    pub fn addr_of(&self, i: usize) -> u64 {
        self.check_index(i);
        self.base_addr + (i * T::BYTES) as u64
    }

    #[inline]
    #[track_caller]
    fn ptr(&self, i: usize) -> *const u8 {
        self.check_index(i);
        unsafe { self.storage.base().add(i * T::BYTES) }
    }

    /// Relaxed atomic load of element `i` (no accounting).
    #[inline]
    pub fn load(&self, i: usize) -> T {
        unsafe { T::atomic_load(self.ptr(i)) }
    }

    /// Relaxed atomic store to element `i` (no accounting).
    #[inline]
    pub fn store(&self, i: usize, v: T) {
        unsafe { T::atomic_store(self.ptr(i), v) }
    }

    /// Host-side bulk upload.
    pub fn copy_from_slice(&self, src: &[T]) {
        assert!(src.len() <= self.len);
        for (i, &v) in src.iter().enumerate() {
            self.store(i, v);
        }
    }

    /// Host-side bulk download.
    pub fn to_vec(&self) -> Vec<T> {
        (0..self.len).map(|i| self.load(i)).collect()
    }

    /// Host-side fill.
    pub fn fill(&self, v: T) {
        for i in 0..self.len {
            self.store(i, v);
        }
    }
}

impl<T: AtomicInt> DeviceBuffer<T> {
    #[inline]
    pub fn fetch_add(&self, i: usize, v: T) -> T {
        unsafe { T::atomic_fetch_add(self.ptr(i), v) }
    }
    #[inline]
    pub fn fetch_min(&self, i: usize, v: T) -> T {
        unsafe { T::atomic_fetch_min(self.ptr(i), v) }
    }
    #[inline]
    pub fn fetch_max(&self, i: usize, v: T) -> T {
        unsafe { T::atomic_fetch_max(self.ptr(i), v) }
    }
    #[inline]
    pub fn fetch_or(&self, i: usize, v: T) -> T {
        unsafe { T::atomic_fetch_or(self.ptr(i), v) }
    }
    #[inline]
    pub fn fetch_and(&self, i: usize, v: T) -> T {
        unsafe { T::atomic_fetch_and(self.ptr(i), v) }
    }
    #[inline]
    pub fn compare_exchange(&self, i: usize, current: T, new: T) -> Result<T, T> {
        unsafe { T::atomic_cas(self.ptr(i), current, new) }
    }
}

impl DeviceBuffer<f32> {
    /// Atomic min on an `f32` via a CAS loop (GPU frameworks emulate this
    /// the same way).
    ///
    /// NaN policy (shared with [`DeviceBuffer::fetch_add_f32`]): a NaN
    /// operand never poisons the cell — it is ignored and the current
    /// value returned. A NaN already *in* the cell is repaired by the
    /// first non-NaN operand. `-0.0` orders below `+0.0`, matching IEEE
    /// `minimum` rather than the `<` comparison that treats them equal.
    pub fn fetch_min_f32(&self, i: usize, v: f32) -> f32 {
        let p = self.ptr(i) as *const AtomicU32;
        let a = unsafe { &*p };
        let mut cur = a.load(Ordering::Relaxed);
        loop {
            let cf = f32::from_bits(cur);
            if v.is_nan() {
                return cf;
            }
            let smaller = v < cf
                || (v == cf && v.is_sign_negative() && !cf.is_sign_negative())
                || cf.is_nan();
            if !smaller {
                return cf;
            }
            match a.compare_exchange(cur, v.to_bits(), Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return cf,
                Err(actual) => cur = actual,
            }
        }
    }

    /// Atomic add on an `f32` via a CAS loop. A NaN operand is ignored
    /// (current value returned) — same NaN policy as
    /// [`DeviceBuffer::fetch_min_f32`], so one bad contribution cannot
    /// poison an accumulator shared by thousands of lanes.
    pub fn fetch_add_f32(&self, i: usize, v: f32) -> f32 {
        let p = self.ptr(i) as *const AtomicU32;
        let a = unsafe { &*p };
        let mut cur = a.load(Ordering::Relaxed);
        if v.is_nan() {
            return f32::from_bits(cur);
        }
        loop {
            let cf = f32::from_bits(cur);
            let new = (cf + v).to_bits();
            match a.compare_exchange(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return cf,
                Err(actual) => cur = actual,
            }
        }
    }
}

impl<T: DeviceScalar> Drop for DeviceBuffer<T> {
    fn drop(&mut self) {
        if self.owned {
            self.live.store(false, Ordering::Relaxed);
            self.tracker.release(self.charged);
        }
    }
}

impl<T: DeviceScalar + std::fmt::Debug> std::fmt::Debug for DeviceBuffer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DeviceBuffer<{}>(len={}, addr={:#x}, {:?})",
            std::any::type_name::<T>(),
            self.len,
            self.base_addr,
            self.kind
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker(cap: u64) -> Arc<MemTracker> {
        Arc::new(MemTracker::new(cap))
    }

    #[test]
    fn roundtrip_u32() {
        let b = DeviceBuffer::<u32>::new(tracker(1 << 20), 100, AllocKind::Device).unwrap();
        b.store(3, 42);
        assert_eq!(b.load(3), 42);
        assert_eq!(b.load(4), 0, "fresh memory is zeroed");
    }

    #[test]
    fn roundtrip_f64_and_f32() {
        let t = tracker(1 << 20);
        let b = DeviceBuffer::<f64>::new(t.clone(), 8, AllocKind::Shared).unwrap();
        b.store(7, -1.5);
        assert_eq!(b.load(7), -1.5);
        let c = DeviceBuffer::<f32>::new(t, 8, AllocKind::Device).unwrap();
        c.store(0, 3.25);
        assert_eq!(c.load(0), 3.25);
    }

    #[test]
    fn atomic_rmw_ops() {
        let b = DeviceBuffer::<u32>::new(tracker(1 << 20), 4, AllocKind::Device).unwrap();
        assert_eq!(b.fetch_add(0, 5), 0);
        assert_eq!(b.fetch_add(0, 5), 5);
        b.store(1, 10);
        assert_eq!(b.fetch_min(1, 3), 10);
        assert_eq!(b.load(1), 3);
        assert_eq!(b.fetch_or(2, 0b1010), 0);
        assert_eq!(b.fetch_or(2, 0b0101), 0b1010);
        assert_eq!(b.load(2), 0b1111);
        assert_eq!(b.fetch_and(2, 0b0110), 0b1111);
        assert_eq!(b.load(2), 0b0110);
    }

    #[test]
    fn f32_atomic_min() {
        let b = DeviceBuffer::<f32>::new(tracker(1 << 20), 1, AllocKind::Device).unwrap();
        b.store(0, 100.0);
        assert_eq!(b.fetch_min_f32(0, 50.0), 100.0);
        assert_eq!(b.fetch_min_f32(0, 75.0), 50.0);
        assert_eq!(b.load(0), 50.0);
    }

    #[test]
    fn f32_atomic_min_handles_infinity_and_nan() {
        let b = DeviceBuffer::<f32>::new(tracker(1 << 20), 1, AllocKind::Device).unwrap();
        b.store(0, f32::INFINITY);
        assert_eq!(b.fetch_min_f32(0, 3.0), f32::INFINITY, "relaxing from ∞");
        assert_eq!(b.load(0), 3.0);
        // NaN never overwrites a real distance
        assert_eq!(b.fetch_min_f32(0, f32::NAN), 3.0);
        assert_eq!(b.load(0), 3.0);
        // negative values still win
        assert_eq!(b.fetch_min_f32(0, -1.0), 3.0);
        assert_eq!(b.load(0), -1.0);
    }

    #[test]
    fn f32_atomic_min_orders_negative_zero() {
        let b = DeviceBuffer::<f32>::new(tracker(1024), 1, AllocKind::Device).unwrap();
        b.store(0, 0.0);
        b.fetch_min_f32(0, -0.0);
        assert!(b.load(0).is_sign_negative(), "-0.0 wins over +0.0");
        // And +0.0 never displaces -0.0.
        b.fetch_min_f32(0, 0.0);
        assert!(b.load(0).is_sign_negative());
    }

    #[test]
    fn f32_atomic_min_repairs_nan_cell() {
        let b = DeviceBuffer::<f32>::new(tracker(1024), 1, AllocKind::Device).unwrap();
        b.store(0, f32::NAN);
        b.fetch_min_f32(0, 5.0);
        assert_eq!(b.load(0), 5.0, "first non-NaN operand repairs the cell");
    }

    #[test]
    fn f32_atomic_add_ignores_nan_operand() {
        let b = DeviceBuffer::<f32>::new(tracker(1024), 1, AllocKind::Device).unwrap();
        b.store(0, 3.0);
        assert_eq!(b.fetch_add_f32(0, f32::NAN), 3.0);
        assert_eq!(b.load(0), 3.0, "NaN contribution never poisons the cell");
    }

    #[test]
    fn f32_atomic_min_contended_multi_lane() {
        use std::sync::Arc as StdArc;
        let b = StdArc::new(DeviceBuffer::<f32>::new(tracker(1024), 1, AllocKind::Device).unwrap());
        b.store(0, f32::INFINITY);
        std::thread::scope(|s| {
            for t in 0..4 {
                let b = b.clone();
                s.spawn(move || {
                    for k in 0..1000 {
                        b.fetch_min_f32(0, (t * 1000 + k) as f32);
                        if k % 7 == 0 {
                            b.fetch_min_f32(0, f32::NAN);
                        }
                    }
                });
            }
        });
        assert_eq!(b.load(0), 0.0, "global min survives contention + NaNs");
        assert!(!b.load(0).is_nan());
    }

    #[test]
    fn f32_atomic_add_concurrent() {
        use std::sync::Arc as StdArc;
        let b =
            StdArc::new(DeviceBuffer::<f32>::new(tracker(1 << 20), 1, AllocKind::Device).unwrap());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let b = b.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        b.fetch_add_f32(0, 1.0);
                    }
                });
            }
        });
        assert_eq!(b.load(0), 4000.0);
    }

    #[test]
    fn oom_is_reported() {
        let t = tracker(1024);
        let ok = DeviceBuffer::<u32>::new(t.clone(), 128, AllocKind::Device);
        assert!(ok.is_ok());
        let err = DeviceBuffer::<u32>::new(t.clone(), 200, AllocKind::Device);
        match err {
            Err(SimError::OutOfMemory {
                requested,
                used,
                capacity,
            }) => {
                // 800 raw bytes charge as one 1024-B aligned block.
                assert_eq!(requested, 1024);
                assert_eq!(used, 512);
                assert_eq!(capacity, 1024);
            }
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn accounting_is_alignment_granular() {
        let t = tracker(4096);
        let a = DeviceBuffer::<u32>::new(t.clone(), 10, AllocKind::Device).unwrap();
        assert_eq!(t.used(), 256, "40 raw bytes charge one 256-B block");
        let b = DeviceBuffer::<u32>::new(t.clone(), 100, AllocKind::Device).unwrap();
        assert_eq!(t.used(), 256 + 512);
        drop(a);
        drop(b);
        assert_eq!(t.used(), 0, "aligned charge is fully returned");
        assert_eq!(t.release_underflows(), 0);
    }

    #[test]
    fn release_saturates_and_counts_underflow() {
        let t = tracker(1024);
        t.release(100);
        assert_eq!(t.used(), 0, "saturates instead of wrapping");
        assert_eq!(t.release_underflows(), 1);
        // Later allocations still work.
        assert!(DeviceBuffer::<u32>::new(t.clone(), 16, AllocKind::Device).is_ok());
    }

    #[test]
    fn recompute_from_ledger_heals_drifted_counters() {
        let t = tracker(1 << 20);
        let a = DeviceBuffer::<u32>::new(t.clone(), 100, AllocKind::Device).unwrap();
        let _b = DeviceBuffer::<u64>::new(t.clone(), 32, AllocKind::Shared).unwrap();
        let truth = t.used();
        // Drift the incremental counter the way a stray release would
        // (saturating, so the bytes are silently dropped).
        t.release(256);
        assert_ne!(t.used(), truth, "counter drifted");
        t.recompute_from_ledger();
        assert_eq!(t.used(), truth, "ledger restores the true live total");
        assert!(t.peak() >= truth);
        // Dead entries stop counting: recompute tracks frees too.
        drop(a);
        let after_free = t.used();
        t.recompute_from_ledger();
        assert_eq!(t.used(), after_free);
    }

    #[test]
    fn snapshot_restore_roundtrips_contents() {
        let b = DeviceBuffer::<f32>::new(tracker(1 << 20), 5, AllocKind::Device).unwrap();
        for i in 0..5 {
            b.store(i, i as f32 * 1.5 - 2.0);
        }
        let image = b.snapshot_words();
        b.fill(f32::NAN);
        b.restore_words(&image);
        for i in 0..5 {
            assert_eq!(b.load(i).to_bits(), (i as f32 * 1.5 - 2.0).to_bits());
        }
    }

    #[test]
    fn soft_limit_caps_effective_capacity() {
        let t = tracker(1 << 20);
        t.set_soft_limit(Some(512));
        assert_eq!(t.effective_capacity(), 512);
        let a = DeviceBuffer::<u32>::new(t.clone(), 64, AllocKind::Device).unwrap(); // 256 B
        let err = DeviceBuffer::<u32>::new(t.clone(), 128, AllocKind::Device)
            .expect_err("512-B charge over a 512-B limit with 256 B used");
        match err {
            SimError::OutOfMemory { capacity, .. } => {
                assert_eq!(capacity, 512, "error reports the effective capacity")
            }
            other => panic!("expected OutOfMemory, got {other}"),
        }
        drop(a);
        t.set_soft_limit(None);
        assert!(DeviceBuffer::<u32>::new(t, 128, AllocKind::Device).is_ok());
    }

    #[test]
    fn bounds_check_is_always_on() {
        let b = DeviceBuffer::<u32>::new(tracker(1024), 4, AllocKind::Device).unwrap();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b.load(4)))
            .expect_err("OOB load must panic in all build profiles");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("len 4"), "panic names the length: {msg}");
        assert!(msg.contains("Device"), "panic names the AllocKind: {msg}");
    }

    #[test]
    fn alias_detects_use_after_free() {
        let t = tracker(1024);
        let b = DeviceBuffer::<u32>::new(t.clone(), 8, AllocKind::Device).unwrap();
        b.store(3, 99);
        let view = b.alias();
        assert!(view.is_live());
        assert_eq!(t.used(), 256, "alias charges nothing");
        drop(b);
        assert!(!view.is_live(), "owner drop kills liveness");
        assert_eq!(t.used(), 0, "alias does not hold the reservation");
        assert_eq!(view.load(3), 99, "storage stays valid (no host UB)");
        assert!(view.generation() > 0);
    }

    #[test]
    fn ledger_locates_addresses() {
        let t = tracker(1 << 20);
        let a = DeviceBuffer::<u32>::new(t.clone(), 10, AllocKind::Device).unwrap();
        let b = DeviceBuffer::<u64>::new(t.clone(), 10, AllocKind::Shared).unwrap();
        let (kind, base, _) = t.locate(a.addr_of(3)).unwrap();
        assert_eq!(kind, AllocKind::Device);
        assert_eq!(base, a.addr_of(0));
        let (kind, base, gen_b) = t.locate(b.addr_of(9)).unwrap();
        assert_eq!(kind, AllocKind::Shared);
        assert_eq!(base, b.addr_of(0));
        assert_eq!(gen_b, b.generation());
        assert!(t.locate(0).is_none(), "zero page maps to nothing");
    }

    #[test]
    fn drop_releases_memory() {
        let t = tracker(1024);
        {
            let _b = DeviceBuffer::<u64>::new(t.clone(), 64, AllocKind::Device).unwrap();
            assert_eq!(t.used(), 512);
        }
        assert_eq!(t.used(), 0);
        assert_eq!(t.peak(), 512, "peak survives the free");
    }

    #[test]
    fn addresses_are_distinct_and_aligned() {
        let t = tracker(1 << 20);
        let a = DeviceBuffer::<u32>::new(t.clone(), 10, AllocKind::Device).unwrap();
        let b = DeviceBuffer::<u32>::new(t, 10, AllocKind::Device).unwrap();
        assert_ne!(a.addr_of(0), b.addr_of(0));
        assert_eq!(a.addr_of(0) % 256, 0);
        assert_eq!(a.addr_of(3) - a.addr_of(0), 12);
    }

    #[test]
    fn bulk_copy_roundtrip() {
        let b = DeviceBuffer::<i64>::new(tracker(1 << 20), 5, AllocKind::Device).unwrap();
        b.copy_from_slice(&[-1, 2, -3, 4, -5]);
        assert_eq!(b.to_vec(), vec![-1, 2, -3, 4, -5]);
        b.fill(9);
        assert_eq!(b.to_vec(), vec![9; 5]);
    }
}
