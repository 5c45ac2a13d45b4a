//! The persistent work-stealing worker pool behind every parallel
//! call in the shim.
//!
//! ## Architecture
//!
//! Workers are OS threads spawned **once** (lazily, on the first
//! parallel call) and parked on a condvar when idle. A parallel call
//! does not spawn anything: it publishes a `Job` — a descriptor
//! living on the submitting thread's stack — in a global registry,
//! wakes some workers, and then participates in its own job.
//!
//! ## Steal-by-cursor chunk scheduling
//!
//! A job is split into `n_chunks` indexed chunks. Every participant
//! (the submitter plus up to `width - 1` workers) claims chunks with a
//! `fetch_add` on the job's shared atomic cursor until it is
//! exhausted. This is a deliberately simple form of stealing — there
//! are no per-worker deques to search; "stealing" is claiming the next
//! chunk index from the shared cursor — but it has the two properties
//! the workspace needs: load balance (a slow chunk never blocks the
//! remaining chunks behind one thread's fixed share) and **fairness of
//! outcome**: every chunk writes its results by chunk *index*, so the
//! output is byte-identical no matter which worker ran which chunk.
//! Determinism survives stealing because scheduling decides only
//! *where* a chunk runs, never *what* it computes or where it writes.
//!
//! ## Lifetime safety
//!
//! `Job` borrows stack data of the submitter (the chunk closure and
//! its result slots), so the submitter must not return while any
//! worker can still touch the job. The protocol:
//!
//! 1. a worker may only discover a job through the registry, and
//!    checks in (`checked_in += 1`) *under the registry lock*, which
//!    the submitter also needs for deregistration — so check-in only
//!    happens while the job is provably alive;
//! 2. the submitter waits for `remaining == 0` (all chunks executed),
//!    deregisters the job, then spins until `checked_in == 0`; a
//!    checked-in worker's final access to the job is the `Release`
//!    decrement of `checked_in`, so once the submitter observes zero
//!    with `Acquire`, no worker holds a reference.
//!
//! Chunk panics are caught (keeping the worker alive), recorded in the
//! job, and resumed on the submitting thread after the job completes —
//! the same observable behavior as the old `scope`-spawn executor's
//! propagating `join()`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::Thread;

use crate::POOL_THREADS;

/// How many chunks each participating thread gets on average: a job is
/// cut into `width * OVERPARTITION` chunks (bounded by `min_len`) so a
/// participant that finishes early can steal the tail of the work
/// instead of idling behind the slowest fixed share.
pub(crate) const OVERPARTITION: usize = 4;

/// A type-erased parallel job. Lives on the submitting thread's stack
/// for the duration of [`run_job`] / [`run_oneshot`].
struct Job {
    /// Next chunk index to claim.
    cursor: AtomicUsize,
    /// Total chunk count.
    n_chunks: usize,
    /// Chunks not yet finished executing.
    remaining: AtomicUsize,
    /// Workers currently inside the claim loop (submitter excluded).
    checked_in: AtomicUsize,
    /// Current participants (submitter included when it participates).
    participants: AtomicUsize,
    /// Maximum concurrent participants.
    width: usize,
    /// One-shot jobs (installed closures) must run on a worker, never
    /// the submitter; workers prefer them so they cannot starve behind
    /// a wide long-running job.
    oneshot: bool,
    /// The submitting thread, unparked on progress.
    waiter: Thread,
    /// The chunk body: `func(i)` runs chunk `i`. Lifetime-erased; valid
    /// until the submitting frame returns.
    func: *const (dyn Fn(usize) + Sync),
    /// First panic payload observed in any chunk.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// Registry entry; raw pointer into a submitter's stack frame.
#[derive(Clone, Copy, PartialEq, Eq)]
struct JobRef(*const Job);
// SAFETY: the check-in/deregister protocol above guarantees the
// pointee outlives every dereference.
unsafe impl Send for JobRef {}

/// Global pool state: the job registry plus worker bookkeeping.
struct PoolState {
    /// Jobs that may still have unclaimed chunks, submission order.
    queue: Mutex<Vec<JobRef>>,
    /// Wakes parked workers when the queue changes.
    work_available: Condvar,
    /// Workers spawned so far.
    spawned: AtomicUsize,
    /// Workers currently parked in `work_available.wait`.
    idle: AtomicUsize,
    /// One-shot jobs submitted but not yet claimed.
    oneshot_pending: AtomicUsize,
    /// Serializes worker spawning.
    spawn_lock: Mutex<()>,
}

thread_local! {
    /// Whether the current thread is a pool worker.
    static IS_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Whether the calling thread is one of the pool's workers.
pub(crate) fn on_worker() -> bool {
    IS_WORKER.with(|c| c.get())
}

/// In-process override for [`configured_pool_size`] (0 = none).
static WIDTH_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the default parallel width for the current process
/// (`None` restores the `PHC_THREADS`/auto-detected value). The env
/// knob is read once and latched — setting `PHC_THREADS` after the
/// first parallel call silently does nothing — so this is the
/// supported way to change the default width after startup. An
/// explicitly installed width (`ThreadPool::install`,
/// `with_pool`) still takes precedence; the pool grows workers on
/// demand if the override raises the width.
pub fn set_threads_for_test(width: Option<usize>) {
    WIDTH_OVERRIDE.store(width.unwrap_or(0), Ordering::SeqCst);
}

/// The configured pool size: the in-process override
/// ([`set_threads_for_test`]) if one is set, else `PHC_THREADS` (read
/// once at pool init), else the machine's available parallelism. This
/// is both the number of initially spawned workers and the default
/// width of parallel calls.
pub(crate) fn configured_pool_size() -> usize {
    let o = WIDTH_OVERRIDE.load(Ordering::Relaxed);
    if o > 0 {
        return o;
    }
    static SIZE: OnceLock<usize> = OnceLock::new();
    *SIZE.get_or_init(|| {
        std::env::var("PHC_THREADS")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&n: &usize| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    })
}

fn pool() -> &'static PoolState {
    static POOL: OnceLock<PoolState> = OnceLock::new();
    POOL.get_or_init(|| PoolState {
        queue: Mutex::new(Vec::new()),
        work_available: Condvar::new(),
        spawned: AtomicUsize::new(0),
        idle: AtomicUsize::new(0),
        oneshot_pending: AtomicUsize::new(0),
        spawn_lock: Mutex::new(()),
    })
}

fn lock_queue(pool: &'static PoolState) -> MutexGuard<'static, Vec<JobRef>> {
    // Workers never panic while holding the lock, but a poisoned queue
    // would wedge the whole process; recover defensively.
    pool.queue.lock().unwrap_or_else(|e| e.into_inner())
}

/// Ensures at least `n` workers exist (spawned once, kept forever).
fn ensure_workers(n: usize) {
    let pool = pool();
    if pool.spawned.load(Ordering::Relaxed) >= n {
        return;
    }
    let _g = pool.spawn_lock.lock().unwrap_or_else(|e| e.into_inner());
    while pool.spawned.load(Ordering::Relaxed) < n {
        let id = pool.spawned.load(Ordering::Relaxed);
        std::thread::Builder::new()
            .name(format!("phc-pool-{id}"))
            .spawn(move || worker_loop(pool))
            .expect("failed to spawn pool worker");
        pool.spawned.fetch_add(1, Ordering::Relaxed);
    }
}

/// The body of every persistent worker: park until work appears, join
/// a claimable job, drain chunks from its cursor, repeat.
fn worker_loop(pool: &'static PoolState) {
    IS_WORKER.with(|c| c.set(true));
    let mut queue = lock_queue(pool);
    loop {
        // Prefer one-shot (installed) jobs so they cannot starve
        // behind a wide data-parallel job, then submission order.
        let mut joined: Option<JobRef> = None;
        for pass in 0..2 {
            for &jr in queue.iter() {
                let job = unsafe { &*jr.0 };
                if pass == 0 && !job.oneshot {
                    continue;
                }
                if job.cursor.load(Ordering::Relaxed) >= job.n_chunks {
                    continue;
                }
                // Take a participant slot if the job is below width.
                let mut p = job.participants.load(Ordering::Relaxed);
                let took = loop {
                    if p >= job.width {
                        break false;
                    }
                    match job.participants.compare_exchange_weak(
                        p,
                        p + 1,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => break true,
                        Err(cur) => p = cur,
                    }
                };
                if took {
                    // Check-in happens under the queue lock: the job
                    // is registered, hence alive.
                    job.checked_in.fetch_add(1, Ordering::Relaxed);
                    if job.oneshot {
                        pool.oneshot_pending.fetch_sub(1, Ordering::Relaxed);
                    }
                    joined = Some(jr);
                    break;
                }
            }
            if joined.is_some() {
                break;
            }
        }
        match joined {
            None => {
                pool.idle.fetch_add(1, Ordering::Relaxed);
                queue = pool
                    .work_available
                    .wait(queue)
                    .unwrap_or_else(|e| e.into_inner());
                pool.idle.fetch_sub(1, Ordering::Relaxed);
            }
            Some(jr) => {
                drop(queue);
                let job = unsafe { &*jr.0 };
                let claimed = execute_chunks(job);
                phc_obs::probe!(count SchedSteals, claimed);
                // Checkout: clone the waiter first — after the final
                // `checked_in` decrement the job may be freed.
                let waiter = job.waiter.clone();
                job.participants.fetch_sub(1, Ordering::Relaxed);
                job.checked_in.fetch_sub(1, Ordering::Release);
                waiter.unpark();
                queue = lock_queue(pool);
            }
        }
    }
}

/// Claims and runs chunks until the cursor is exhausted; returns the
/// number of chunks this thread executed. Inside a chunk the calling
/// thread reports the job's width as `current_num_threads`.
fn execute_chunks(job: &Job) -> usize {
    // SAFETY: the job is alive (submitter ownership or check-in).
    let func = unsafe { &*job.func };
    let prev_width = POOL_THREADS.with(|c| c.replace(Some(job.width)));
    let mut claimed = 0usize;
    loop {
        let i = job.cursor.fetch_add(1, Ordering::Relaxed);
        if i >= job.n_chunks {
            phc_obs::probe!(count SchedStealAttempts);
            break;
        }
        claimed += 1;
        if let Err(p) = catch_unwind(AssertUnwindSafe(|| func(i))) {
            let mut slot = job.panic.lock().unwrap_or_else(|e| e.into_inner());
            if slot.is_none() {
                *slot = Some(p);
            }
        }
        job.remaining.fetch_sub(1, Ordering::Release);
    }
    POOL_THREADS.with(|c| c.set(prev_width));
    phc_obs::probe!(count SchedChunksClaimed, claimed);
    phc_obs::probe!(hist SchedChunksPerWorker, claimed);
    claimed
}

/// Registers `job`, wakes up to `helpers` workers, and returns.
fn submit(job: &Job, helpers: usize) {
    let pool = pool();
    {
        let mut queue = lock_queue(pool);
        if job.oneshot {
            pool.oneshot_pending.fetch_add(1, Ordering::Relaxed);
            // Front of the queue: first pick for a waking worker.
            queue.insert(0, JobRef(job));
        } else {
            queue.push(JobRef(job));
        }
    }
    for _ in 0..helpers {
        pool.work_available.notify_one();
    }
    phc_obs::probe!(count SchedJobs);
}

/// Deregisters `job` and waits out any straggling claim-loop workers,
/// then propagates the first chunk panic, if any.
fn retire(job: &Job) {
    let pool = pool();
    {
        let mut queue = lock_queue(pool);
        queue.retain(|jr| !std::ptr::eq(jr.0, job));
    }
    while job.checked_in.load(Ordering::Acquire) != 0 {
        std::hint::spin_loop();
    }
    let payload = job.panic.lock().unwrap_or_else(|e| e.into_inner()).take();
    if let Some(p) = payload {
        std::panic::resume_unwind(p);
    }
}

/// Runs `func(i)` for every `i in 0..n_chunks` on the pool. The
/// calling thread participates; up to `width - 1` workers help by
/// claiming chunks from the shared cursor. Blocks until every chunk
/// has executed. Panics in chunks are propagated to the caller.
pub(crate) fn run_job(n_chunks: usize, width: usize, func: &(dyn Fn(usize) + Sync)) {
    if n_chunks == 0 {
        return;
    }
    if n_chunks == 1 || width <= 1 {
        let prev = POOL_THREADS.with(|c| c.replace(Some(width.max(1))));
        struct Restore(Option<usize>);
        impl Drop for Restore {
            fn drop(&mut self) {
                POOL_THREADS.with(|c| c.set(self.0));
            }
        }
        let _restore = Restore(prev);
        for i in 0..n_chunks {
            func(i);
        }
        return;
    }
    ensure_workers(width);
    let job = Job {
        cursor: AtomicUsize::new(0),
        n_chunks,
        remaining: AtomicUsize::new(n_chunks),
        checked_in: AtomicUsize::new(0),
        participants: AtomicUsize::new(1), // the submitter
        width,
        oneshot: false,
        waiter: std::thread::current(),
        func: erase(func),
        panic: Mutex::new(None),
    };
    submit(&job, (width - 1).min(n_chunks - 1));
    execute_chunks(&job);
    while job.remaining.load(Ordering::Acquire) != 0 {
        std::thread::park();
    }
    retire(&job);
}

/// Runs `func(0)` as a one-chunk job on a pool **worker** (the caller
/// parks and never executes the chunk itself). Used by
/// `ThreadPool::install` to move installed closures onto the pool.
pub(crate) fn run_oneshot(width: usize, func: &(dyn Fn(usize) + Sync)) {
    let pool = pool();
    ensure_workers(configured_pool_size().max(1));
    // A oneshot needs a free worker *now*: if none is idle, grow the
    // pool by one (bounded by the number of concurrently outstanding
    // installs, mirroring the old spawn-per-call behavior).
    if pool.idle.load(Ordering::Relaxed) <= pool.oneshot_pending.load(Ordering::Relaxed) {
        ensure_workers(pool.spawned.load(Ordering::Relaxed) + 1);
    }
    let job = Job {
        cursor: AtomicUsize::new(0),
        n_chunks: 1,
        remaining: AtomicUsize::new(1),
        checked_in: AtomicUsize::new(0),
        participants: AtomicUsize::new(0), // submitter does not join
        width: width.max(1),
        oneshot: true,
        waiter: std::thread::current(),
        func: erase(func),
        panic: Mutex::new(None),
    };
    submit(&job, 1);
    while job.remaining.load(Ordering::Acquire) != 0 {
        std::thread::park();
    }
    retire(&job);
}

/// Erases the borrow lifetime of a chunk closure. Sound because every
/// submission path blocks until no worker can touch the job again.
fn erase<'a>(func: &'a (dyn Fn(usize) + Sync + 'a)) -> *const (dyn Fn(usize) + Sync) {
    let ptr: *const (dyn Fn(usize) + Sync + 'a) = func;
    unsafe { std::mem::transmute(ptr) }
}

/// A cell asserting cross-thread shareability; each index is touched
/// by exactly one chunk, which the cursor's `fetch_add` guarantees.
pub(crate) struct SyncCell<T>(std::cell::UnsafeCell<T>);
// SAFETY: disjoint per-chunk access (see above).
unsafe impl<T: Send> Sync for SyncCell<T> {}

impl<T> SyncCell<T> {
    pub(crate) fn new(v: T) -> Self {
        SyncCell(std::cell::UnsafeCell::new(v))
    }
    /// Raw pointer to the contents. Going through a method (rather
    /// than the field) makes closures capture `&SyncCell`, keeping the
    /// `Sync` assertion in force under RFC 2229 disjoint captures.
    pub(crate) fn get(&self) -> *mut T {
        self.0.get()
    }
    pub(crate) fn into_inner(self) -> T {
        self.0.into_inner()
    }
}
