//! The fleet's persistent drain pool.
//!
//! [`Fleet::push_batch`](crate::Fleet::push_batch) answers one serving
//! tick, a few milliseconds of work split into per-feed units. Spawning
//! scoped threads per tick (`pmu_numerics::par`) costs ~50 µs per thread
//! on every tick, and on a small host the freshly spawned helper often
//! starts after the calling thread has already drained everything.
//! [`DrainPool`] keeps its helper threads for the fleet's lifetime
//! instead:
//!
//! - helpers start lazily, on the first call with work for two workers,
//!   so a fleet that is built, restored or only ever driven on one worker
//!   starts no thread;
//! - after a job a helper spins for [`SPIN`] (back-to-back batches find
//!   it awake), then parks on a condvar;
//! - the calling thread works too: it pulls units from the same atomic
//!   index as the helpers, and withdraws the copies of its job that no
//!   helper has taken yet instead of waiting for one to wake;
//! - a panic in any unit is caught, the batch still settles, and the
//!   payload is handed back to the caller; the helpers survive it;
//! - dropping the pool stops and joins its helpers;
//! - while instrumentation is on, every worker's share of a job is
//!   reported as `par.worker` stats, as `pmu_numerics::par` reports its
//!   fan-outs: busy time inside units, idle time since the job was
//!   queued (a helper's wake-up included).
//!
//! Jobs are `'static` (the pool stays `unsafe`-free): each call moves its
//! units into the job, and units own or share (`Arc`) what they touch.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long an idle helper (and a caller waiting for its helpers) spins
/// before parking on a condvar.
const SPIN: Duration = Duration::from_micros(75);

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// One call's work as a helper sees it, with its types erased.
trait Task: Send + Sync {
    /// Pull and run units until none is left; `worker` is 0 on the
    /// calling thread and `1 + helper index` on a helper.
    fn work(&self, worker: usize);
    /// A queued copy of this job has finished.
    fn done(&self);
}

struct Queue {
    jobs: VecDeque<Arc<dyn Task>>,
    stop: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    wake: Condvar,
    /// Jobs queued and not yet taken, readable without the queue lock by
    /// spinning helpers.
    queued: AtomicUsize,
    /// Helper threads alive right now.
    live: AtomicUsize,
}

/// A persistent pool of helper threads that, together with the calling
/// thread, maps a function over a batch of units. See the module docs.
pub(crate) struct DrainPool {
    shared: Arc<Shared>,
    helpers: Mutex<Vec<JoinHandle<()>>>,
}

impl DrainPool {
    /// A pool with no helper thread yet.
    pub(crate) fn new() -> Self {
        DrainPool {
            shared: Arc::new(Shared {
                queue: Mutex::new(Queue { jobs: VecDeque::new(), stop: false }),
                wake: Condvar::new(),
                queued: AtomicUsize::new(0),
                live: AtomicUsize::new(0),
            }),
            helpers: Mutex::new(Vec::new()),
        }
    }

    /// Map `f` over `items` on up to `workers` threads, the calling
    /// thread included, and return the results in input order. With one
    /// worker (or one item) everything runs on the calling thread and no
    /// helper is started.
    ///
    /// # Errors
    /// The payload of the first panic raised by `f`, once every unit has
    /// been claimed and every helper working on this call has finished.
    pub(crate) fn map<T, U, F>(
        &self,
        items: Vec<T>,
        workers: usize,
        f: F,
    ) -> std::thread::Result<Vec<U>>
    where
        T: Send + Sync + 'static,
        U: Send + 'static,
        F: Fn(&T) -> U + Send + Sync + 'static,
    {
        let helpers = workers.min(items.len()).saturating_sub(1);
        if helpers == 0 {
            return catch_unwind(AssertUnwindSafe(|| items.iter().map(&f).collect()));
        }
        self.ensure_helpers(helpers);
        let n = items.len();
        let job = Arc::new(Job {
            items,
            f,
            next: AtomicUsize::new(0),
            posted: pmu_obs::enabled().then(Instant::now),
            results: Mutex::new(Vec::with_capacity(n)),
            panic: Mutex::new(None),
            unfinished: AtomicUsize::new(helpers),
            settled: Mutex::new(()),
            settled_cv: Condvar::new(),
        });
        let erased: Arc<dyn Task> = job.clone();
        {
            let mut q = lock(&self.shared.queue);
            q.jobs.extend((0..helpers).map(|_| Arc::clone(&erased)));
            self.shared.queued.fetch_add(helpers, Ordering::Release);
        }
        for _ in 0..helpers {
            self.shared.wake.notify_one();
        }

        job.work(0);
        // Every unit is claimed now; copies still queued would find
        // nothing to do, so withdraw them rather than wait for a helper
        // to wake up and run an empty loop.
        let withdrawn = {
            let mut q = lock(&self.shared.queue);
            let before = q.jobs.len();
            let mine = Arc::as_ptr(&erased).cast::<()>();
            q.jobs.retain(|j| Arc::as_ptr(j).cast::<()>() != mine);
            let withdrawn = before - q.jobs.len();
            self.shared.queued.fetch_sub(withdrawn, Ordering::Relaxed);
            withdrawn
        };
        for _ in 0..withdrawn {
            job.done();
        }
        job.wait();

        if let Some(payload) = lock(&job.panic).take() {
            return Err(payload);
        }
        let mut out: Vec<Option<U>> = (0..n).map(|_| None).collect();
        for (i, u) in lock(&job.results).drain(..) {
            out[i] = Some(u);
        }
        Ok(out.into_iter().map(|o| o.expect("every unit ran")).collect())
    }

    /// Start helpers until `n` are running.
    fn ensure_helpers(&self, n: usize) {
        let mut helpers = lock(&self.helpers);
        while helpers.len() < n {
            let shared = Arc::clone(&self.shared);
            shared.live.fetch_add(1, Ordering::SeqCst);
            let index = helpers.len();
            let spawned = std::thread::Builder::new()
                .name(format!("pmu-drain-{index}"))
                .spawn(move || {
                    helper(&shared, 1 + index);
                    shared.live.fetch_sub(1, Ordering::SeqCst);
                });
            match spawned {
                Ok(handle) => helpers.push(handle),
                Err(e) => {
                    // The caller drains whatever no helper takes, so a
                    // refused spawn costs speed, not correctness.
                    self.shared.live.fetch_sub(1, Ordering::SeqCst);
                    pmu_obs::info(&format!("drain pool: cannot start a helper: {e}"));
                    return;
                }
            }
        }
    }

    /// Helper threads started so far.
    #[cfg(test)]
    pub(crate) fn helpers(&self) -> usize {
        lock(&self.helpers).len()
    }

    /// A handle on the count of live helper threads that outlives the
    /// pool.
    #[cfg(test)]
    pub(crate) fn live_probe(&self) -> impl Fn() -> usize {
        let shared = Arc::clone(&self.shared);
        move || shared.live.load(Ordering::SeqCst)
    }
}

impl Drop for DrainPool {
    fn drop(&mut self) {
        lock(&self.shared.queue).stop = true;
        self.shared.wake.notify_all();
        for handle in lock(&self.helpers).drain(..) {
            let _ = handle.join();
        }
    }
}

/// A helper's life: take a job, run it, repeat until the pool stops.
fn helper(shared: &Shared, worker: usize) {
    while let Some(job) = next_job(shared) {
        job.work(worker);
        job.done();
    }
}

/// Spin for [`SPIN`] while nothing is queued, then take the next job,
/// parking until one arrives; `None` once the pool stops.
fn next_job(shared: &Shared) -> Option<Arc<dyn Task>> {
    let spin_until = Instant::now() + SPIN;
    while shared.queued.load(Ordering::Acquire) == 0 && Instant::now() < spin_until {
        std::hint::spin_loop();
    }
    let mut q = lock(&shared.queue);
    loop {
        if q.stop {
            return None;
        }
        if let Some(job) = q.jobs.pop_front() {
            shared.queued.fetch_sub(1, Ordering::Relaxed);
            return Some(job);
        }
        q = shared.wake.wait(q).unwrap_or_else(|p| p.into_inner());
    }
}

/// One [`DrainPool::map`] call: its units, the shared index the workers
/// pull from, and what they leave behind.
struct Job<T, U, F> {
    items: Vec<T>,
    f: F,
    next: AtomicUsize,
    /// When the job was queued, while instrumentation is on: a worker's
    /// idle time runs from here (a helper's wake-up included).
    posted: Option<Instant>,
    results: Mutex<Vec<(usize, U)>>,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Queued copies not yet finished (run by a helper or withdrawn).
    /// A helper's `AcqRel` decrement after its last result pairs with
    /// the caller's `Acquire` load before it reads the results.
    unfinished: AtomicUsize,
    settled: Mutex<()>,
    settled_cv: Condvar,
}

impl<T, U, F> Job<T, U, F> {
    /// Block until every queued copy has finished: spin briefly (a helper
    /// is usually finishing its last unit), then park.
    fn wait(&self) {
        let spin_until = Instant::now() + SPIN;
        while self.unfinished.load(Ordering::Acquire) > 0 {
            if Instant::now() >= spin_until {
                let mut g = lock(&self.settled);
                while self.unfinished.load(Ordering::Acquire) > 0 {
                    g = self.settled_cv.wait(g).unwrap_or_else(|p| p.into_inner());
                }
                return;
            }
            std::hint::spin_loop();
        }
    }
}

impl<T, U, F> Task for Job<T, U, F>
where
    T: Send + Sync,
    U: Send,
    F: Fn(&T) -> U + Send + Sync,
{
    fn work(&self, worker: usize) {
        let mut local = Vec::new();
        let mut busy_us = 0u64;
        let outcome = catch_unwind(AssertUnwindSafe(|| loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.items.len() {
                break;
            }
            let t = self.posted.map(|_| Instant::now());
            local.push((i, (self.f)(&self.items[i])));
            if let Some(t) = t {
                busy_us += t.elapsed().as_micros() as u64;
            }
        }));
        if let Some(posted) = self.posted {
            pmu_obs::events::WorkerStats {
                worker,
                tasks: local.len(),
                busy_us,
                idle_us: (posted.elapsed().as_micros() as u64).saturating_sub(busy_us),
            }
            .emit();
        }
        if !local.is_empty() {
            lock(&self.results).append(&mut local);
        }
        if let Err(payload) = outcome {
            lock(&self.panic).get_or_insert(payload);
        }
    }

    fn done(&self) {
        if self.unfinished.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _g = lock(&self.settled);
            self.settled_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_in_input_order_on_any_worker_count() {
        let pool = DrainPool::new();
        for workers in [1, 2, 3, 8] {
            let out = pool.map((0..100u64).collect(), workers, |&x| x * x).unwrap();
            assert_eq!(out, (0..100u64).map(|x| x * x).collect::<Vec<_>>(), "{workers}");
        }
        assert_eq!(pool.helpers(), 7, "helpers grow to the widest call, once");
        assert!(pool.map(Vec::<u8>::new(), 2, |&x| x).unwrap().is_empty());
        assert_eq!(pool.map(vec![5], 4, |&x| x).unwrap(), vec![5]);
    }
}
