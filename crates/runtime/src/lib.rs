//! Morsel-driven parallel execution substrate.
//!
//! The workspace's single parallelism primitive is the [`MorselPool`]: work
//! is cut into *morsels* (small, independently executable units, indexed
//! `0..n` — the term is from HyPer's morsel-driven parallelism), block-
//! distributed over per-worker deques, and executed by scoped threads that
//! *steal* from their neighbours' deques once their own runs dry. Stealing
//! keeps skewed workloads (power-law adjacency lists, pinned scans) balanced
//! without any tuning.
//!
//! Two properties the query layer builds on:
//!
//! * **Determinism.** Results are returned *in morsel order* regardless of
//!   which worker executed which morsel, so a parallel run merges to exactly
//!   the sequential outcome (per-worker partial aggregates are re-assembled
//!   positionally, never in completion order).
//! * **The sequential special case.** A 1-thread pool (or a 0/1-morsel job)
//!   runs inline on the caller's stack — no threads are spawned, no locks
//!   are taken — so `threads = 1` *is* the pre-existing sequential path.
//!
//! Threads are scoped (`std::thread::scope`), which is what lets tasks
//! borrow the graph and index store by reference: no `'static` bounds, no
//! `Arc` plumbing through the executor. This composes directly with the
//! service layer's epoch-based snapshots — the caller pins an immutable
//! `Snapshot` on its stack for the duration of the pool call, every
//! worker borrows from that one pinned version, and writers publishing
//! newer versions concurrently never touch it.
//!
//! The worker count defaults to the machine's `available_parallelism` and
//! can be overridden with the `APLUS_THREADS` environment variable (read
//! once per [`MorselPool::from_env`] call; pools built with
//! [`MorselPool::new`] ignore the environment entirely, which is what unit
//! tests and the scaling bench use).

use std::collections::{BTreeMap, VecDeque};
use std::ops::{ControlFlow, Range};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Environment variable overriding the default worker count.
pub const THREADS_ENV: &str = "APLUS_THREADS";

/// A one-shot, waitable termination signal for long-lived services.
///
/// Where [`ExitSignal`] is a poll-only flag scoped to a single
/// `map_ranges` call, `Shutdown` is the *service-lifetime* variant: it can
/// be triggered exactly once (idempotently), checked without blocking, and
/// **waited on** — with or without a timeout — via an internal condvar, so
/// an accept loop or a watchdog thread can park instead of spinning. The
/// network front-end shares one `Shutdown` between its accept loop and
/// every connection handler: triggering it refuses new connections and
/// lets in-flight work drain.
///
/// ```
/// use std::sync::Arc;
/// use std::time::Duration;
/// use aplus_runtime::Shutdown;
///
/// let shutdown = Arc::new(Shutdown::new());
/// assert!(!shutdown.wait_timeout(Duration::from_millis(1)));
/// let waiter = {
///     let shutdown = Arc::clone(&shutdown);
///     std::thread::spawn(move || shutdown.wait())
/// };
/// shutdown.trigger();
/// waiter.join().unwrap();
/// assert!(shutdown.is_triggered());
/// ```
#[derive(Debug, Default)]
pub struct Shutdown {
    triggered: Mutex<bool>,
    cv: Condvar,
}

impl Shutdown {
    /// A fresh, untriggered signal.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Triggers the signal, waking every waiter. Idempotent.
    pub fn trigger(&self) {
        *lock(&self.triggered) = true;
        self.cv.notify_all();
    }

    /// Whether the signal has been triggered (non-blocking).
    #[must_use]
    pub fn is_triggered(&self) -> bool {
        *lock(&self.triggered)
    }

    /// Blocks until the signal is triggered.
    pub fn wait(&self) {
        let mut guard = lock(&self.triggered);
        while !*guard {
            guard = self.cv.wait(guard).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Blocks for at most `timeout`; returns whether the signal was
    /// triggered (spurious wakeups are absorbed internally).
    #[must_use]
    pub fn wait_timeout(&self, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        let mut guard = lock(&self.triggered);
        while !*guard {
            let Some(remaining) = deadline.checked_duration_since(std::time::Instant::now()) else {
                return false;
            };
            guard = self
                .cv
                .wait_timeout(guard, remaining)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
        true
    }
}

/// Cooperative cancellation flag shared between the morsel merger and the
/// workers of one [`MorselPool::map_ranges`] call.
///
/// The merger sets it when the sink stops consuming (a `LIMIT` was
/// satisfied, a client disconnected); tasks poll it to abandon work whose
/// result can no longer reach the output. Polling is advisory — a task
/// that never checks still terminates normally, its result is simply
/// dropped.
#[derive(Debug, Default)]
pub struct ExitSignal {
    stopped: AtomicBool,
}

impl ExitSignal {
    /// A fresh, unset signal.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cooperative termination.
    pub fn stop(&self) {
        self.stopped.store(true, Ordering::Release);
    }

    /// Whether termination has been requested.
    #[inline]
    #[must_use]
    pub fn is_stopped(&self) -> bool {
        self.stopped.load(Ordering::Acquire)
    }
}

/// Shared state of one streaming merge: results completed out of order,
/// the next morsel index the sink needs, and the live worker count.
struct MergeState<R> {
    pending: BTreeMap<usize, R>,
    next: usize,
    active: usize,
}

/// Decrements the live-worker count (and wakes the merger) even when the
/// worker unwinds — otherwise a panicking task would leave the merger
/// blocked forever instead of letting the scope propagate the panic.
struct WorkerGuard<'a, R> {
    state: &'a Mutex<MergeState<R>>,
    to_merger: &'a Condvar,
    to_workers: &'a Condvar,
    exit: &'a ExitSignal,
}

impl<R> Drop for WorkerGuard<'_, R> {
    fn drop(&mut self) {
        // A panicking worker's morsel will never reach the merger, so the
        // run can't complete: set the exit signal so workers parked at the
        // admission window unwind too (their wait re-checks it), letting
        // `active` reach 0 and the merger break out — the scope join then
        // re-raises the original panic.
        if std::thread::panicking() {
            self.exit.stop();
        }
        lock(self.state).active -= 1;
        self.to_merger.notify_one();
        self.to_workers.notify_all();
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A scoped work-stealing pool executing morsel-indexed tasks.
///
/// The pool is a lightweight handle (a validated thread count); workers are
/// spawned per [`MorselPool::run`] call inside a thread scope, so tasks may
/// borrow from the caller's stack. Cloning is free.
///
/// ```
/// use aplus_runtime::MorselPool;
///
/// let pool = MorselPool::new(4);
/// let squares = pool.run(8, |m| m * m);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MorselPool {
    threads: usize,
}

impl Default for MorselPool {
    fn default() -> Self {
        Self::from_env()
    }
}

impl MorselPool {
    /// A pool with exactly `threads` workers (clamped to at least 1).
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// The single-threaded pool: every `run` executes inline.
    #[must_use]
    pub fn sequential() -> Self {
        Self::new(1)
    }

    /// A pool sized from the environment: `APLUS_THREADS` when set to a
    /// positive integer, otherwise the machine's available parallelism.
    #[must_use]
    pub fn from_env() -> Self {
        Self::new(resolve_threads(std::env::var(THREADS_ENV).ok().as_deref()))
    }

    /// Worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether `run` executes inline without spawning.
    #[must_use]
    pub fn is_sequential(&self) -> bool {
        self.threads == 1
    }

    /// Executes `task` once per morsel index in `0..morsels` and returns
    /// the results **in morsel order**.
    ///
    /// Morsels are block-distributed over `min(threads, morsels)` worker
    /// deques; each worker pops its own deque from the front and steals
    /// from other deques' backs when empty. With 0 or 1 morsels, or on a
    /// sequential pool, everything runs inline on the caller's thread.
    ///
    /// Panics in `task` are propagated to the caller after the scope joins.
    pub fn run<R, F>(&self, morsels: usize, task: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let workers = self.threads.min(morsels);
        if workers <= 1 {
            return (0..morsels).map(task).collect();
        }
        // Block distribution: worker `w` seeds morsels
        // `[w*n/W, (w+1)*n/W)`, so contiguous ranges stay contiguous per
        // worker (cache locality) until stealing rebalances the tail.
        let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
            .map(|w| {
                let lo = w * morsels / workers;
                let hi = (w + 1) * morsels / workers;
                Mutex::new((lo..hi).collect())
            })
            .collect();
        let queues = &queues;
        let task = &task;
        let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(morsels).collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    scope.spawn(move || {
                        let mut done: Vec<(usize, R)> = Vec::new();
                        loop {
                            let next = pop_own(&queues[w]).or_else(|| steal(queues, w));
                            match next {
                                Some(m) => done.push((m, task(m))),
                                None => break,
                            }
                        }
                        done
                    })
                })
                .collect();
            for h in handles {
                match h.join() {
                    Ok(part) => {
                        for (m, r) in part {
                            debug_assert!(slots[m].is_none(), "morsel {m} ran twice");
                            slots[m] = Some(r);
                        }
                    }
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });
        slots
            .into_iter()
            .map(|s| s.expect("every morsel executed exactly once"))
            .collect()
    }

    /// Cuts `0..total` into contiguous ranges of at most `morsel_size`
    /// items, executes `task` on each, and returns the results in range
    /// order. The convenience shape for partitioned scans.
    pub fn run_ranges<R, F>(&self, total: usize, morsel_size: usize, task: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Range<usize>) -> R + Sync,
    {
        let size = morsel_size.max(1);
        let morsels = total.div_ceil(size);
        self.run(morsels, |m| task(m * size..((m + 1) * size).min(total)))
    }

    /// Order-preserving streaming map over contiguous ranges of `0..total`,
    /// with a bounded in-flight window and cooperative early exit.
    ///
    /// Workers execute `task` on morsels out of order; the **caller's
    /// thread** acts as the merger, feeding each result to `sink` strictly
    /// in morsel order as soon as the next-needed morsel completes. This is
    /// the primitive behind order-preserving parallel `collect` and row
    /// streaming: concatenating per-morsel buffers in sink order
    /// reconstructs exactly the sequential result sequence.
    ///
    /// Three guarantees:
    ///
    /// * **Order.** `sink` observes results for morsels `0, 1, 2, …` with
    ///   no gaps, regardless of completion order.
    /// * **Bounded buffering.** At most `window` morsels may be in flight
    ///   (executing or completed-but-undelivered) beyond the sink's
    ///   position, so a slow consumer never forces the pool to materialize
    ///   the whole result. `window` is clamped to at least the worker
    ///   count (a smaller value would only idle workers).
    /// * **Early exit.** When `sink` returns [`ControlFlow::Break`], the
    ///   shared [`ExitSignal`] is set: queued morsels are abandoned, and
    ///   running tasks can poll the signal to stop mid-morsel. A result
    ///   from a morsel the sink never reached is dropped, never delivered
    ///   out of order — by construction everything the sink consumed came
    ///   from the contiguous prefix, so an early exit is oblivious to
    ///   whatever the abandoned tail would have produced.
    ///
    /// On a sequential pool (or a 0/1-morsel job) everything runs inline on
    /// the caller's thread in order, with the same early-exit semantics —
    /// the `threads = 1` case *is* the sequential path.
    ///
    /// ```
    /// use std::ops::ControlFlow;
    /// use aplus_runtime::MorselPool;
    ///
    /// // First 3 per-range sums of 0..100 in chunks of 10, then stop.
    /// let mut sums = Vec::new();
    /// MorselPool::new(4).map_ranges(100, 10, 4, |r, _exit| -> u64 {
    ///     r.map(|i| i as u64).sum()
    /// }, |s| {
    ///     sums.push(s);
    ///     if sums.len() == 3 { ControlFlow::Break(()) } else { ControlFlow::Continue(()) }
    /// });
    /// assert_eq!(sums, vec![45, 145, 245]);
    /// ```
    pub fn map_ranges<R, F, S>(
        &self,
        total: usize,
        morsel_size: usize,
        window: usize,
        task: F,
        mut sink: S,
    ) where
        R: Send,
        F: Fn(Range<usize>, &ExitSignal) -> R + Sync,
        S: FnMut(R) -> ControlFlow<()>,
    {
        let size = morsel_size.max(1);
        let morsels = total.div_ceil(size);
        let range_of = |m: usize| m * size..((m + 1) * size).min(total);
        let workers = self.threads.min(morsels);
        let exit = ExitSignal::new();
        if workers <= 1 {
            for m in 0..morsels {
                let r = task(range_of(m), &exit);
                if sink(r).is_break() {
                    exit.stop();
                    return;
                }
            }
            return;
        }
        let window = window.max(workers);
        // Ownership is *interleaved* (worker `w` owns morsels `≡ w mod
        // workers`), unlike `run`'s block distribution: the admission
        // window parks workers more than `window` morsels ahead of the
        // merger, and under block distribution every worker's first own
        // morsel (except worker 0's) already sits beyond the window — the
        // whole pool would serialize behind worker 0's block. Interleaving
        // keeps each worker's queue front within `workers` of the global
        // frontier, so all workers stay admitted as the merger advances.
        let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
            .map(|w| Mutex::new((w..morsels).step_by(workers).collect()))
            .collect();
        let state = Mutex::new(MergeState::<R> {
            pending: BTreeMap::new(),
            next: 0,
            active: workers,
        });
        let to_merger = Condvar::new();
        let to_workers = Condvar::new();
        let (queues, state, to_merger, to_workers, exit, task) =
            (&queues, &state, &to_merger, &to_workers, &exit, &task);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    scope.spawn(move || {
                        let _guard = WorkerGuard {
                            state,
                            to_merger,
                            to_workers,
                            exit,
                        };
                        loop {
                            if exit.is_stopped() {
                                return;
                            }
                            let Some(m) = pop_own(&queues[w]).or_else(|| steal(queues, w)) else {
                                return;
                            };
                            // Admission: don't run ahead of the sink by
                            // more than `window` morsels. The worker
                            // holding the next-needed morsel is always
                            // admitted, so the merger always progresses.
                            {
                                let mut st = lock(state);
                                while m >= st.next + window && !exit.is_stopped() {
                                    st =
                                        to_workers.wait(st).unwrap_or_else(PoisonError::into_inner);
                                }
                                if exit.is_stopped() {
                                    return;
                                }
                            }
                            let r = task(range_of(m), exit);
                            lock(state).pending.insert(m, r);
                            to_merger.notify_one();
                        }
                    })
                })
                .collect();
            // The merger: deliver pending results in morsel order.
            let mut delivered = 0usize;
            while delivered < morsels {
                let next = {
                    let mut st = lock(state);
                    loop {
                        if let Some(r) = st.pending.remove(&delivered) {
                            st.next = delivered + 1;
                            break Some(r);
                        }
                        if st.active == 0 {
                            // Workers are gone without producing the next
                            // morsel: a task panicked (the scope join below
                            // re-raises it) — nothing more will arrive.
                            break None;
                        }
                        st = to_merger.wait(st).unwrap_or_else(PoisonError::into_inner);
                    }
                };
                let Some(r) = next else { break };
                to_workers.notify_all();
                if sink(r).is_break() {
                    break;
                }
                delivered += 1;
            }
            // Unblock any worker still parked at admission (early exit or
            // normal completion), then join, re-raising the first worker
            // panic with its original payload. The state lock between
            // `stop` and `notify_all` closes the lost-wakeup window: a
            // worker that evaluated the admission predicate before the
            // stop must reach `Condvar::wait` (releasing the lock) before
            // we can acquire it, so the notify always lands.
            exit.stop();
            drop(lock(state));
            to_workers.notify_all();
            for h in handles {
                if let Err(payload) = h.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });
    }
}

fn pop_own(queue: &Mutex<VecDeque<usize>>) -> Option<usize> {
    queue
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .pop_front()
}

fn steal(queues: &[Mutex<VecDeque<usize>>], thief: usize) -> Option<usize> {
    let n = queues.len();
    // Victims are visited in ring order starting after the thief, taking
    // from the *back* (the cold end of the victim's block).
    (1..n).find_map(|d| {
        queues[(thief + d) % n]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .pop_back()
    })
}

/// Resolves the worker count from an optional `APLUS_THREADS` value: a
/// positive integer wins; anything else (unset, empty, garbage, zero)
/// falls back to the machine's available parallelism.
#[must_use]
pub fn resolve_threads(env_value: Option<&str>) -> usize {
    env_value
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&t| t > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
}

/// Picks a morsel size for a scan of `total` items: aim for ~8 morsels per
/// worker (so stealing can rebalance skew) but never exceed `cap` items per
/// morsel (so giant scans still interleave). Returns at least 1.
#[must_use]
pub fn scan_morsel_size(total: usize, threads: usize, cap: usize) -> usize {
    total.div_ceil(threads.max(1) * 8).clamp(1, cap.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_are_in_morsel_order() {
        for threads in [1, 2, 3, 4, 8] {
            let pool = MorselPool::new(threads);
            let out = pool.run(37, |m| m * 2);
            assert_eq!(out, (0..37).map(|m| m * 2).collect::<Vec<_>>(), "{threads}");
        }
    }

    #[test]
    fn every_morsel_runs_exactly_once() {
        let counters: Vec<AtomicUsize> = (0..101).map(|_| AtomicUsize::new(0)).collect();
        let pool = MorselPool::new(4);
        // Skewed work: morsel 0 is much heavier than the rest, so other
        // workers must steal to finish.
        pool.run(counters.len(), |m| {
            if m == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            counters[m].fetch_add(1, Ordering::Relaxed);
        });
        for (m, c) in counters.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "morsel {m}");
        }
    }

    #[test]
    fn sequential_pool_never_spawns() {
        // Observable contract: the task runs on the calling thread.
        let caller = std::thread::current().id();
        let pool = MorselPool::sequential();
        let ids = pool.run(5, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
        assert!(pool.is_sequential());
    }

    #[test]
    fn zero_and_one_morsels() {
        let pool = MorselPool::new(8);
        assert!(pool.run(0, |m| m).is_empty());
        assert_eq!(pool.run(1, |m| m + 41), vec![41]);
    }

    #[test]
    fn run_ranges_covers_total_exactly() {
        let pool = MorselPool::new(4);
        let ranges = pool.run_ranges(1000, 64, |r| r);
        assert_eq!(ranges.first().unwrap().start, 0);
        assert_eq!(ranges.last().unwrap().end, 1000);
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        assert!(ranges.iter().all(|r| r.len() <= 64 && !r.is_empty()));
    }

    #[test]
    fn resolve_threads_rules() {
        assert_eq!(resolve_threads(Some("3")), 3);
        assert_eq!(resolve_threads(Some(" 12 ")), 12);
        let machine = resolve_threads(None);
        assert!(machine >= 1);
        // Invalid values fall back to the machine default.
        assert_eq!(resolve_threads(Some("0")), machine);
        assert_eq!(resolve_threads(Some("")), machine);
        assert_eq!(resolve_threads(Some("lots")), machine);
    }

    #[test]
    fn scan_morsel_size_bounds() {
        assert_eq!(scan_morsel_size(0, 4, 256), 1);
        assert_eq!(scan_morsel_size(16, 4, 256), 1); // 16/32 rounds up to 1
        assert_eq!(scan_morsel_size(10_000, 4, 256), 256); // capped
        assert_eq!(scan_morsel_size(1000, 4, 256), 32); // ~8 morsels/worker
        assert_eq!(scan_morsel_size(1000, 1, 256), 125);
    }

    #[test]
    fn threads_clamped_to_one() {
        assert_eq!(MorselPool::new(0).threads(), 1);
        assert!(MorselPool::default().threads() >= 1);
    }

    #[test]
    #[should_panic(expected = "morsel 7 panicked")]
    fn worker_panics_propagate() {
        MorselPool::new(2).run(16, |m| {
            if m == 7 {
                panic!("morsel 7 panicked");
            }
            m
        });
    }

    #[test]
    fn map_ranges_delivers_in_order() {
        for threads in [1, 2, 3, 4, 8] {
            for window in [1, 2, 16] {
                let pool = MorselPool::new(threads);
                let mut got = Vec::new();
                pool.map_ranges(
                    1003,
                    17,
                    window,
                    |r, _| r,
                    |r| {
                        got.push(r);
                        ControlFlow::Continue(())
                    },
                );
                assert_eq!(got.first().unwrap().start, 0, "{threads}/{window}");
                assert_eq!(got.last().unwrap().end, 1003);
                for w in got.windows(2) {
                    assert_eq!(w[0].end, w[1].start, "{threads} threads, window {window}");
                }
            }
        }
    }

    #[test]
    fn map_ranges_out_of_order_completion_still_merges_in_order() {
        // Morsel 0 is by far the slowest, so every other morsel completes
        // first; the sink must still see 0, 1, 2, … .
        let pool = MorselPool::new(4);
        let mut got = Vec::new();
        pool.map_ranges(
            64,
            4,
            64,
            |r, _| {
                if r.start == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(25));
                }
                r.start
            },
            |s| {
                got.push(s);
                ControlFlow::Continue(())
            },
        );
        assert_eq!(got, (0..16).map(|m| m * 4).collect::<Vec<_>>());
    }

    #[test]
    fn map_ranges_early_exit_skips_tail_morsels() {
        use std::sync::atomic::AtomicUsize;
        for threads in [1, 4] {
            let executed = AtomicUsize::new(0);
            let pool = MorselPool::new(threads);
            let mut seen = Vec::new();
            pool.map_ranges(
                10_000,
                1,
                threads, // smallest window: exit cancels almost everything
                |r, _| {
                    executed.fetch_add(1, Ordering::Relaxed);
                    r.start
                },
                |s| {
                    seen.push(s);
                    if seen.len() == 3 {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                },
            );
            assert_eq!(seen, vec![0, 1, 2], "{threads} threads");
            let ran = executed.load(Ordering::Relaxed);
            assert!(
                ran < 10_000,
                "early exit must cancel queued morsels ({ran} ran at {threads} threads)"
            );
        }
    }

    #[test]
    fn map_ranges_tasks_observe_exit_signal() {
        // After the sink breaks, a still-running task sees the signal.
        let pool = MorselPool::new(2);
        let mut n = 0;
        pool.map_ranges(
            8,
            1,
            2,
            |r, exit| {
                // Morsels past the first spin until cancelled (exit is set
                // right after morsel 0 is delivered and the sink breaks).
                while r.start != 0 && !exit.is_stopped() {
                    std::hint::spin_loop();
                }
            },
            |()| {
                n += 1;
                ControlFlow::Break(())
            },
        );
        assert_eq!(n, 1);
    }

    /// Regression: the admission window must not serialize the pool. With
    /// block-distributed ownership every worker's first own morsel (except
    /// worker 0's) starts beyond the window, so the whole run degenerates
    /// to sequential; interleaved ownership keeps all workers admitted.
    /// Sleeping tasks overlap regardless of core count, so this timing
    /// check is stable on 1-core CI boxes: 64 × 5 ms must take far less
    /// than the 320 ms a serialized run needs.
    #[test]
    fn map_ranges_window_does_not_serialize_workers() {
        let pool = MorselPool::new(4);
        let t = std::time::Instant::now();
        let mut delivered = 0usize;
        pool.map_ranges(
            64,
            1,
            8,
            |_r, _| std::thread::sleep(std::time::Duration::from_millis(5)),
            |()| {
                delivered += 1;
                ControlFlow::Continue(())
            },
        );
        let elapsed = t.elapsed();
        assert_eq!(delivered, 64);
        assert!(
            elapsed < std::time::Duration::from_millis(200),
            "64 x 5ms morsels at 4 workers took {elapsed:?} — the admission \
             window is parking workers instead of overlapping them"
        );
    }

    #[test]
    fn map_ranges_zero_morsels_is_a_noop() {
        let pool = MorselPool::new(4);
        pool.map_ranges(0, 8, 4, |r, _| r, |_| unreachable!("no morsels"));
    }

    #[test]
    #[should_panic(expected = "map task panicked")]
    fn map_ranges_worker_panics_propagate() {
        MorselPool::new(2).map_ranges(
            64,
            1,
            64,
            |r, _| {
                if r.start == 9 {
                    panic!("map task panicked");
                }
                r.start
            },
            |_| ControlFlow::Continue(()),
        );
    }

    #[test]
    fn shutdown_trigger_is_idempotent_and_wakes_waiters() {
        let shutdown = std::sync::Arc::new(Shutdown::new());
        assert!(!shutdown.is_triggered());
        assert!(
            !shutdown.wait_timeout(Duration::from_millis(1)),
            "untriggered wait times out"
        );
        let waiters: Vec<_> = (0..3)
            .map(|_| {
                let s = std::sync::Arc::clone(&shutdown);
                std::thread::spawn(move || s.wait())
            })
            .collect();
        shutdown.trigger();
        shutdown.trigger(); // idempotent
        for w in waiters {
            w.join().unwrap();
        }
        assert!(shutdown.is_triggered());
        assert!(
            shutdown.wait_timeout(Duration::from_secs(0)),
            "post-trigger waits return immediately"
        );
        shutdown.wait(); // returns immediately too
    }

    #[test]
    fn shutdown_wait_timeout_observes_late_trigger() {
        let shutdown = std::sync::Arc::new(Shutdown::new());
        let waiter = {
            let s = std::sync::Arc::clone(&shutdown);
            std::thread::spawn(move || s.wait_timeout(Duration::from_secs(30)))
        };
        std::thread::sleep(Duration::from_millis(10));
        shutdown.trigger();
        assert!(waiter.join().unwrap(), "trigger within the window is seen");
    }

    /// Regression: a worker panicking while *another* worker is parked at
    /// the admission window must still propagate (not deadlock). Morsel 0
    /// panics slowly, so the other worker races ahead, fills the tiny
    /// window and parks; the panicking worker's guard must wake it and
    /// the merger, or this test hangs forever.
    #[test]
    #[should_panic(expected = "slow panic on morsel 0")]
    fn map_ranges_panic_with_parked_workers_propagates() {
        MorselPool::new(2).map_ranges(
            64,
            1,
            2, // smallest window: the healthy worker parks almost at once
            |r, _| {
                if r.start == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(30));
                    panic!("slow panic on morsel 0");
                }
                r.start
            },
            |_| ControlFlow::Continue(()),
        );
    }
}
