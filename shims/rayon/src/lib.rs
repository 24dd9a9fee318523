//! Offline stand-in for the `rayon` API surface this workspace uses:
//! `(range).into_par_iter().map(f).collect::<Vec<_>>()` and
//! `slice.par_iter_mut().for_each(f)`. Items are cut into a few chunks per
//! available core and the chunks run on one persistent pool, started on
//! first use and sized `available_parallelism − 1`, because the calling
//! thread always takes part. Results are returned in order — observable
//! behaviour matches rayon for these shapes (the closures are `Sync` and
//! items independent).
//!
//! Every call is a [`Job`]: a chunk count, an atomic counter handing out
//! chunk indices, and a count of finished chunks. The caller claims chunks
//! from the first instant; once the call has run for [`SOLO`] and the
//! chunks still unclaimed come to [`WORTH`] it queues the job and wakes
//! pool threads, which claim from the same counter. Whoever gets an index
//! runs that chunk, so a call never depends on a pool thread being free:
//! concurrent callers and calls nested inside a chunk always finish, at
//! worst serially on their own thread. A panic inside a chunk is caught
//! where it happens and re-raised on the caller once every chunk is done.
//! With one core (`taskset -c 0`) there is a single chunk, it runs inline,
//! and no pool thread exists.

use std::any::Any;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once, OnceLock, PoisonError};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// How long a call runs on its caller alone before pool threads are woken.
/// Most simulator launches are over sooner, and for those a wake-up is all
/// cost: a system call on the caller and a second core spun up for work
/// that is gone when it arrives. It also keeps such calls' chunks in
/// index order, as the staggered start of per-call spawned threads did.
const SOLO: Duration = Duration::from_micros(20);

/// How much work a call must still have unclaimed, at the pace of the
/// chunks its caller has run so far, before pool threads are woken. A
/// helper costs a wake-up and then drags what its chunks touch (for the
/// simulator, whole per-CU cache models) to another core: measured on two
/// cores, a 130 µs launch of thirty light workgroups runs 1.2-1.6x slower
/// shared than alone, a 630 µs one of eighty 1.1x faster.
const WORTH: Duration = Duration::from_micros(250);

/// Chunks cut per thread. More than one, so that a call past [`SOLO`] has
/// work left to share and uneven chunks even out; few, so that per-chunk
/// bookkeeping stays invisible.
const CHUNKS_PER_THREAD: usize = 4;

/// Runs chunk `i` of a call.
type Chunk<'a> = dyn Fn(usize) + Sync + 'a;

/// No lock in this file is held while caller code runs, except a chunk's
/// own slot, which nobody reads after a panic; a poisoned lock therefore
/// still guards consistent data.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One parallel call, shared between its caller and the pool.
struct Job {
    /// The caller's chunk closure with its lifetime erased. It lives on
    /// the caller's stack, which `run_chunks` does not leave until
    /// `done == chunks`.
    run: *const Chunk<'static>,
    chunks: usize,
    /// Next unclaimed chunk; past `chunks` once all are handed out.
    next: AtomicUsize,
    /// Chunks that have finished running.
    done: AtomicUsize,
    /// First panic payload raised by a chunk.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    caller: Thread,
}

// SAFETY: `run` points at a `Sync` closure, so calling it through `&` from
// several threads is allowed; `Job::run_next` upholds its lifetime. Every
// other field is `Send + Sync` by itself.
unsafe impl Send for Job {}
// SAFETY: as above.
unsafe impl Sync for Job {}

impl Job {
    /// Chunks nobody has claimed yet.
    fn unclaimed(&self) -> usize {
        self.chunks
            .saturating_sub(self.next.load(Ordering::Relaxed))
    }

    /// Whether to wake the pool, `elapsed` into a call only its caller has
    /// worked on: past [`SOLO`], and the unclaimed chunks, priced at the
    /// mean of those already run, come to [`WORTH`].
    fn worth_sharing(&self, elapsed: Duration) -> bool {
        let left = self.unclaimed() as u32;
        let ran = self.chunks as u32 - left;
        left > 0 && elapsed >= SOLO && elapsed * left >= WORTH * ran
    }

    /// Claims one chunk and runs it; false when none was left. `from_pool`
    /// is false on the calling thread, which needs no wake-up from itself.
    fn run_next(&self, from_pool: bool) -> bool {
        // Relaxed: the counter only hands out indices. The closure behind
        // `run` was published by the queue mutex (pool threads) or is the
        // caller's own.
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        if i >= self.chunks {
            return false;
        }
        // SAFETY: a claimed index below `chunks` means `done < chunks`
        // until this thread's own increment below, and the caller keeps
        // the closure alive that long. `run` is not read again unless
        // another chunk is claimed.
        let run = unsafe { &*self.run };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| run(i))) {
            lock(&self.panic).get_or_insert(payload);
        }
        // Release pairs with the Acquire load in `wait`: what the chunk
        // wrote is visible to the caller once it sees the last count.
        let finished = self.done.fetch_add(1, Ordering::Release) + 1;
        if from_pool && finished == self.chunks {
            self.caller.unpark();
        }
        true
    }

    /// Blocks the caller until every chunk has finished.
    fn wait(&self) {
        while self.done.load(Ordering::Acquire) < self.chunks {
            // May wake spuriously or on a stale token; the loop rechecks.
            std::thread::park();
        }
    }
}

/// The process-wide pool. Its threads are detached and live as long as
/// the process: they hold no state between jobs and chunk panics are
/// forwarded to callers, so there is nothing to join or report at exit.
struct Pool {
    threads: usize,
    /// Shared jobs that may still have unclaimed chunks, oldest first.
    queue: Mutex<VecDeque<Arc<Job>>>,
    work: Condvar,
}

impl Pool {
    fn get() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        static START: Once = Once::new();
        let pool = POOL.get_or_init(|| Pool {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                - 1,
            queue: Mutex::new(VecDeque::new()),
            work: Condvar::new(),
        });
        START.call_once(|| {
            for i in 0..pool.threads {
                // A thread that fails to start only costs parallelism:
                // callers run every chunk nobody else claims.
                let _ = std::thread::Builder::new()
                    .name(format!("rayon-shim-{i}"))
                    .spawn(move || pool.serve());
            }
        });
        pool
    }

    /// Pool thread body: run chunks of the oldest job that has any left.
    fn serve(&self) -> ! {
        let mut queue = lock(&self.queue);
        loop {
            match queue.front() {
                None => {
                    queue = self
                        .work
                        .wait(queue)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                Some(job) if job.unclaimed() == 0 => {
                    queue.pop_front();
                }
                Some(job) => {
                    let job = Arc::clone(job);
                    drop(queue);
                    while job.run_next(true) {}
                    queue = lock(&self.queue);
                }
            }
        }
    }

    /// Queues `job` and wakes one thread per unclaimed chunk.
    fn share(&self, job: &Arc<Job>) {
        lock(&self.queue).push_back(Arc::clone(job));
        let wanted = job.unclaimed();
        if wanted >= self.threads {
            self.work.notify_all();
        } else {
            for _ in 0..wanted {
                self.work.notify_one();
            }
        }
    }

    fn unshare(&self, job: &Arc<Job>) {
        lock(&self.queue).retain(|j| !Arc::ptr_eq(j, job));
    }
}

/// Chunks to cut `items` into: a few per thread, at most one per item.
fn chunk_count(items: usize) -> usize {
    let threads = Pool::get().threads + 1;
    if threads == 1 {
        return 1;
    }
    (threads * CHUNKS_PER_THREAD).min(items).max(1)
}

/// Runs `run(0) .. run(chunks - 1)`, each exactly once, on the calling
/// thread and, once [`Job::worth_sharing`], whatever pool threads are free;
/// returns when all have finished. The single entry both adapters go through.
fn run_chunks(chunks: usize, run: &Chunk<'_>) {
    if chunks <= 1 {
        (0..chunks).for_each(run);
        return;
    }
    let pool = Pool::get();
    // SAFETY: only the lifetime changes. `Job::run_next` dereferences the
    // pointer for claimed chunks only, and this function returns (or
    // unwinds) only after `job.wait()` has seen all of them finish.
    let run: *const Chunk<'static> =
        unsafe { std::mem::transmute::<*const Chunk<'_>, *const Chunk<'static>>(run) };
    let job = Arc::new(Job {
        run,
        chunks,
        next: AtomicUsize::new(0),
        done: AtomicUsize::new(0),
        panic: Mutex::new(None),
        caller: std::thread::current(),
    });
    let started = Instant::now();
    let mut shared = false;
    while job.run_next(false) {
        if !shared && job.worth_sharing(started.elapsed()) {
            pool.share(&job);
            shared = true;
        }
    }
    if shared {
        job.wait();
        pool.unshare(&job);
    }
    let panicked = lock(&job.panic).take();
    if let Some(payload) = panicked {
        resume_unwind(payload);
    }
}

/// Parallel adapter over an index range.
pub struct ParRange {
    range: Range<usize>,
}

impl ParRange {
    pub fn map<T, F>(self, f: F) -> ParRangeMap<F>
    where
        F: Fn(usize) -> T + Sync,
        T: Send,
    {
        ParRangeMap {
            range: self.range,
            f,
        }
    }
}

pub struct ParRangeMap<F> {
    range: Range<usize>,
    f: F,
}

impl<F> ParRangeMap<F> {
    fn run<T>(self) -> Vec<T>
    where
        F: Fn(usize) -> T + Sync,
        T: Send,
    {
        let ParRangeMap { range, f } = self;
        let len = range.len();
        let chunks = chunk_count(len);
        if chunks == 1 {
            return range.map(f).collect();
        }
        let per_chunk = len.div_ceil(chunks);
        // Rounding up may leave fewer, fuller chunks than asked for.
        let chunks = len.div_ceil(per_chunk);
        let parts: Vec<Mutex<Vec<T>>> = (0..chunks).map(|_| Mutex::new(Vec::new())).collect();
        run_chunks(chunks, &|c| {
            let lo = range.start + c * per_chunk;
            let hi = (lo + per_chunk).min(range.end);
            let part: Vec<T> = (lo..hi).map(&f).collect();
            *lock(&parts[c]) = part;
        });
        parts
            .into_iter()
            .flat_map(|part| part.into_inner().unwrap_or_else(PoisonError::into_inner))
            .collect()
    }

    pub fn collect<C, T>(self) -> C
    where
        F: Fn(usize) -> T + Sync,
        T: Send,
        C: FromIterator<T>,
    {
        self.run().into_iter().collect()
    }
}

/// `(0..n).into_par_iter()`.
pub trait IntoParallelIterator {
    type ParIter;
    fn into_par_iter(self) -> Self::ParIter;
}

impl IntoParallelIterator for Range<usize> {
    type ParIter = ParRange;
    fn into_par_iter(self) -> ParRange {
        ParRange { range: self }
    }
}

/// Parallel adapter over `&mut [T]`.
pub struct ParSliceMut<'a, T> {
    slice: &'a mut [T],
}

impl<'a, T: Send> ParSliceMut<'a, T> {
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(&mut T) + Sync,
    {
        let chunks = chunk_count(self.slice.len());
        if chunks == 1 {
            self.slice.iter_mut().for_each(f);
            return;
        }
        let per_chunk = self.slice.len().div_ceil(chunks);
        let parts: Vec<Mutex<&mut [T]>> =
            self.slice.chunks_mut(per_chunk).map(Mutex::new).collect();
        run_chunks(parts.len(), &|c| lock(&parts[c]).iter_mut().for_each(&f));
    }
}

/// `slice.par_iter_mut()` / `vec.par_iter_mut()`.
pub trait IntoParallelRefMutIterator<'a> {
    type Item: 'a;
    fn par_iter_mut(&'a mut self) -> ParSliceMut<'a, Self::Item>;
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for [T] {
    type Item = T;
    fn par_iter_mut(&'a mut self) -> ParSliceMut<'a, T> {
        ParSliceMut { slice: self }
    }
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a> for Vec<T> {
    type Item = T;
    fn par_iter_mut(&'a mut self) -> ParSliceMut<'a, T> {
        ParSliceMut { slice: self }
    }
}

pub mod prelude {
    pub use super::{IntoParallelIterator, IntoParallelRefMutIterator};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::{Pool, WORTH};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Barrier};
    use std::time::Instant;

    #[test]
    fn range_map_collect_keeps_order() {
        let got: Vec<usize> = (0..1000usize).into_par_iter().map(|i| i * 2).collect();
        let want: Vec<usize> = (0..1000).map(|i| i * 2).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn slice_for_each_touches_everything() {
        let mut v = vec![1u32; 513];
        v.par_iter_mut().for_each(|x| *x += 1);
        assert!(v.iter().all(|&x| x == 2));
    }

    /// Keeps the calling item busy for `WORTH` (itself past `SOLO`): the
    /// chunks behind it, priced at this one, are then worth sharing with
    /// the pool.
    fn outlast_solo() {
        let began = Instant::now();
        while began.elapsed() < WORTH {
            std::hint::spin_loop();
        }
    }

    /// A three-item call (one chunk each) that a pool thread must take
    /// part in: the caller's first item outlasts `SOLO`, so the job is
    /// shared, and its next one does not return before a pool thread has
    /// entered an item and run `on_pool` there. With no pool (one core)
    /// all items run inline, `on_pool` included.
    fn split_with_pool(on_pool: impl Fn() + Sync) -> Vec<usize> {
        let pooled = Pool::get().threads > 0;
        let caller = std::thread::current().id();
        let entered = AtomicBool::new(false);
        (0..3usize)
            .into_par_iter()
            .map(|i| {
                if pooled && std::thread::current().id() == caller {
                    if i == 0 {
                        outlast_solo();
                    }
                    while i > 0 && !entered.load(Ordering::SeqCst) {
                        std::hint::spin_loop();
                    }
                } else if !entered.swap(true, Ordering::SeqCst) {
                    on_pool();
                }
                i
            })
            .collect()
    }

    #[test]
    fn chunk_panic_reaches_caller_and_pool_serves_next_call() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            split_with_pool(|| panic!("chunk failed"));
        }));
        let payload = result.expect_err("the chunk's panic must unwind the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"chunk failed"));
        // The thread that caught the panic is still serving.
        assert_eq!(split_with_pool(|| {}), vec![0, 1, 2]);
    }

    #[test]
    fn concurrent_callers_finish() {
        let start = Arc::new(Barrier::new(2));
        let callers: Vec<_> = (0..2usize)
            .map(|t| {
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    for call in 0..1000usize {
                        let got: Vec<usize> = (0..64usize)
                            .into_par_iter()
                            .map(|i| {
                                if i == 0 {
                                    outlast_solo();
                                }
                                i + call + t
                            })
                            .collect();
                        let want: Vec<usize> = (0..64).map(|i| i + call + t).collect();
                        assert_eq!(got, want);
                    }
                })
            })
            .collect();
        for caller in callers {
            caller.join().expect("a caller thread failed");
        }
    }

    #[test]
    fn nested_call_finishes() {
        let got: Vec<Vec<usize>> = (0..8usize)
            .into_par_iter()
            .map(|i| {
                (0..8usize)
                    .into_par_iter()
                    .map(|j| {
                        if j == 0 {
                            outlast_solo();
                        }
                        i * 8 + j
                    })
                    .collect()
            })
            .collect();
        let flat: Vec<usize> = got.into_iter().flatten().collect();
        assert_eq!(flat, (0..64).collect::<Vec<_>>());
    }
}
