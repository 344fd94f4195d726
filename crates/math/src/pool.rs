//! One persistent, process-wide worker pool for every fan-out of the
//! workspace: k-means assignment, the per-bucket IVF encode, exact ground
//! truth and batch search all run through [`map`].
//!
//! The pool exists because a batch of short tasks cannot afford thread
//! start-up: worker threads are created **once** per process (lazily, on
//! the first parallel call) and park on a condvar between jobs, so
//! dispatching a job costs one mutex push plus wake-ups, and each
//! worker's thread-local scratch stays warm from one job to the next.
//!
//! ## Job model
//!
//! A job is `n` independent items and a task closure `Fn(usize)`. Items
//! are claimed dynamically from a shared atomic counter (work-stealing by
//! construction: a slow item never strands work behind a static
//! partition). The **submitting thread always participates** — it claims
//! items like any worker — so a job makes progress even when every pool
//! worker is busy with other jobs (a task may itself call [`map`]).
//! `max_helpers` bounds how many pool workers may join, which is how
//! callers express a thread budget against a shared, fixed-size pool.
//!
//! ## Safety
//!
//! The task closure is borrowed, type-erased, and handed to workers as a
//! raw pointer. The invariant making that sound is the same one scoped
//! threads rely on: `WorkerPool::run` does not return until every item
//! has finished, and workers only dereference the pointer after claiming
//! an in-range item — once all items are claimed, late workers observe
//! `next >= n` and drop the job without touching the closure.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// One submitted fan-out: `n` items claimed from `next`, completion
/// tracked in `done`.
struct Job {
    /// Type-erased borrow of the caller's task. Only dereferenced for
    /// claimed in-range items; the caller outlives all such calls by
    /// blocking until `done == n`.
    task: *const (dyn Fn(usize) + Sync),
    next: AtomicUsize,
    done: AtomicUsize,
    n: usize,
    /// Pool workers currently attached (the submitter is not counted).
    helpers: AtomicUsize,
    /// Cap on attached pool workers.
    max_helpers: usize,
    panicked: AtomicBool,
    finished: Mutex<bool>,
    finished_cv: Condvar,
}

// SAFETY: the raw task pointer is only dereferenced while the submitting
// thread is blocked in `run`, which keeps the pointee alive; the pointee
// is `Sync`, so shared calls from several threads are allowed.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    /// Claims and runs items until none remain; flags completion of the
    /// last item. Panics in the task are captured so a poisoned query can
    /// never wedge the pool or the submitter.
    fn work(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                break;
            }
            let task = unsafe { &*self.task };
            if catch_unwind(AssertUnwindSafe(|| task(i))).is_err() {
                self.panicked.store(true, Ordering::Relaxed);
            }
            if self.done.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
                let mut fin = self.finished.lock().unwrap_or_else(|e| e.into_inner());
                *fin = true;
                self.finished_cv.notify_all();
            }
        }
    }

    /// Whether all items have been claimed (not necessarily finished).
    fn exhausted(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.n
    }
}

struct Queue {
    jobs: VecDeque<Arc<Job>>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    work_cv: Condvar,
}

/// A fixed set of persistent worker threads executing submitted fan-outs.
struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns a pool with `size` parked worker threads.
    fn new(size: usize) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            work_cv: Condvar::new(),
        });
        let handles = (0..size)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("rabitq-pool-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Self { shared, handles }
    }

    /// The process-wide pool behind [`map`]: sized to the machine minus
    /// one (the submitting thread participates), created on first use, and
    /// never torn down.
    fn global() -> &'static WorkerPool {
        static POOL: OnceLock<WorkerPool> = OnceLock::new();
        POOL.get_or_init(|| {
            let cores = std::thread::available_parallelism().map_or(2, |p| p.get());
            WorkerPool::new(cores.saturating_sub(1).max(1))
        })
    }

    /// Runs `task(i)` for every `i in 0..n`, each exactly once, with up to
    /// `max_helpers` pool workers assisting the calling thread. Blocks
    /// until all items complete. Items are claimed dynamically, so the
    /// mapping of items to threads is nondeterministic — tasks must make
    /// results depend only on the item index (the seeded-RNG discipline of
    /// the search paths).
    ///
    /// Assumes `n >= 2`: [`map`] runs smaller jobs inline and never
    /// reaches the pool with them.
    ///
    /// # Panics
    /// Panics if any task invocation panicked (after all items finish).
    fn run(&self, n: usize, max_helpers: usize, task: impl Fn(usize) + Sync) {
        let max_helpers = max_helpers.min(self.handles.len()).min(n - 1);
        let task_ref: &(dyn Fn(usize) + Sync) = &task;
        // SAFETY: lifetime erasure justified in the module docs — `run`
        // blocks until `done == n`, after which no worker dereferences.
        let task_ptr: *const (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(task_ref) };
        let job = Arc::new(Job {
            task: task_ptr,
            next: AtomicUsize::new(0),
            done: AtomicUsize::new(0),
            n,
            helpers: AtomicUsize::new(0),
            max_helpers,
            panicked: AtomicBool::new(false),
            finished: Mutex::new(false),
            finished_cv: Condvar::new(),
        });
        {
            let mut q = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            q.jobs.push_back(job.clone());
        }
        self.shared.work_cv.notify_all();

        // Participate, then wait for stragglers.
        job.work();
        let mut fin = job.finished.lock().unwrap_or_else(|e| e.into_inner());
        while !*fin {
            fin = job.finished_cv.wait(fin).unwrap_or_else(|e| e.into_inner());
        }
        drop(fin);

        // Drop our queue entry eagerly (workers also prune lazily) so the
        // erased pointer never outlives this frame inside the queue.
        {
            let mut q = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            q.jobs.retain(|j| !Arc::ptr_eq(j, &job));
        }
        assert!(
            !job.panicked.load(Ordering::Relaxed),
            "a pool task panicked"
        );
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut q = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            q.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for handle in self.handles.drain(..) {
            handle.join().ok();
        }
    }
}

/// Returns `[f(0), f(1), …, f(n − 1)]`, computed by up to `threads`
/// participants of the process-wide pool (the caller included; the pool
/// caps the rest at the machine's parallelism). With `threads <= 1` or
/// `n <= 1` it is a plain loop on the calling thread and never touches
/// the pool. Items are claimed dynamically, so `f` must make its result
/// depend only on the index for the output to be the same at every
/// thread count.
///
/// # Panics
/// Panics if any call of `f` panicked.
pub fn map<T: Send + Sync>(n: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    // Write-once slots: the pool claims each index exactly once, and its
    // completion barrier orders every write before the reads below.
    let slots: Vec<OnceLock<T>> = (0..n).map(|_| OnceLock::new()).collect();
    WorkerPool::global().run(n, threads - 1, |i| {
        assert!(slots[i].set(f(i)).is_ok(), "item {i} claimed twice");
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every slot filled"))
        .collect()
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                q.jobs.retain(|j| !j.exhausted());
                if let Some(job) = q
                    .jobs
                    .iter()
                    .find(|j| j.helpers.load(Ordering::Relaxed) < j.max_helpers)
                {
                    job.helpers.fetch_add(1, Ordering::Relaxed);
                    break job.clone();
                }
                if q.shutdown {
                    return;
                }
                q = shared.work_cv.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        job.work();
        job.helpers.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn runs_every_item_exactly_once() {
        let pool = WorkerPool::new(3);
        let hits: Vec<AtomicU64> = (0..100).map(|_| AtomicU64::new(0)).collect();
        pool.run(100, 3, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn concurrent_submitters_share_the_pool() {
        let pool = Arc::new(WorkerPool::new(4));
        let total = Arc::new(AtomicU64::new(0));
        let submitters: Vec<_> = (0..4)
            .map(|_| {
                let pool = pool.clone();
                let total = total.clone();
                std::thread::spawn(move || {
                    for _ in 0..20 {
                        pool.run(32, 4, |i| {
                            total.fetch_add(i as u64 + 1, Ordering::Relaxed);
                        });
                    }
                })
            })
            .collect();
        for s in submitters {
            s.join().unwrap();
        }
        // 4 submitters × 20 runs × Σ(1..=32)
        assert_eq!(total.load(Ordering::Relaxed), 4 * 20 * (32 * 33 / 2));
    }

    #[test]
    fn task_panic_propagates_without_wedging() {
        let pool = WorkerPool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(8, 2, |i| {
                if i == 3 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // Pool still serves jobs afterwards.
        let sum = AtomicU64::new(0);
        pool.run(5, 2, |i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn map_equals_the_serial_map_at_every_thread_count() {
        let f = |i: usize| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 7;
        for n in [0, 1, 100] {
            let want: Vec<u64> = (0..n).map(f).collect();
            for threads in [1, 2, 4] {
                assert_eq!(map(n, threads, f), want, "n={n} threads={threads}");
            }
        }
    }

    #[test]
    fn map_nested_inside_a_pool_task_completes() {
        let sums = map(8, 4, |i| map(50, 4, |j| (i * j) as u64).iter().sum::<u64>());
        let want: Vec<u64> = (0..8u64).map(|i| i * (49 * 50 / 2)).collect();
        assert_eq!(sums, want);
    }
}
