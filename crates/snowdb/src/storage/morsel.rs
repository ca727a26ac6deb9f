//! Morsel dispatching: work-stealing distribution of independent work items
//! (micro-partitions, batches) across the workers of one call: the calling
//! thread and the helpers of one process-wide pool.
//!
//! The scheduling model follows morsel-driven parallelism: instead of
//! statically slicing the partition list per worker, every worker claims the
//! next unprocessed index from a shared atomic cursor, so a worker that lands
//! on cheap (e.g. pruned) partitions immediately steals more work
//! rather than idling at the barrier. Results are reassembled in index order,
//! which is what lets the parallel executor produce byte-identical output to
//! the serial one.
//!
//! The workers besides the caller are parked threads that outlive the call
//! (named `snowdb-morsel-<n>`, on std's default stack). The pool starts
//! empty and grows to the largest `workers - 1` any call has asked for,
//! never beyond. A call posts `workers - 1` tickets, runs the claim loop on
//! its own thread, then withdraws every ticket no helper has taken and waits
//! only for the ones that were taken. So a call never waits for a thread to
//! wake, a busy pool degrades to the caller alone, and nested or concurrent
//! calls cannot deadlock: a thread that waits never takes a ticket, and the
//! tickets it waits for were taken by threads that were idle.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Shared claim cursor over `0..total`.
pub struct MorselDispatcher {
    cursor: AtomicUsize,
    total: usize,
}

impl MorselDispatcher {
    pub fn new(total: usize) -> MorselDispatcher {
        MorselDispatcher { cursor: AtomicUsize::new(0), total }
    }

    /// Claims the next unprocessed index, or `None` when the range is drained.
    pub fn claim(&self) -> Option<usize> {
        // fetch_add hands every claimed index to exactly one worker; indices
        // claimed past `total` are harmless (the cursor saturates at
        // total + workers).
        let i = self.cursor.fetch_add(1, Ordering::Relaxed);
        (i < self.total).then_some(i)
    }
}

/// What one call of [`try_parallel_indexed_governed`] did.
pub struct Dispatched<R, E> {
    /// The results in index order, or the error that wins.
    pub results: Result<Vec<R>, E>,
    /// Pool helpers that claimed at least one index; the caller is not
    /// counted, so an inline call reports 0.
    pub joined: usize,
}

/// Runs `work(i)` for every `i in 0..total` on up to `threads` workers — the
/// calling thread among them — and returns the results in index order, or
/// the error with the lowest index (the one serial execution would have hit
/// first), independent of worker timing. The one parallel primitive of the
/// executor, governed and panic-isolated:
///
/// - with `threads <= 1` (or a trivially small range) the work runs inline on
///   the calling thread — no helper is asked — which is the degradation path
///   for `SNOWDB_THREADS=1`;
/// - `gate` runs before every claim (and before every inline item). A gate
///   error — cancellation, deadline, budget, injected fault — aborts the
///   whole call promptly: workers stop claiming and the *first observed* gate
///   error is returned. Gate trips are inherently timing-dependent, so no
///   index ordering is imposed on them. A panic in the gate (an injected
///   one) reaches the caller once every helper of the call is done;
/// - `work` runs under `catch_unwind`: a panicking item never unwinds across
///   the call's threads. The payload is converted through
///   `on_panic(index, message)` into a typed error that competes under the
///   same lowest-index-wins rule as ordinary work errors, so the reported
///   error is the one serial execution would have hit first.
/// - work errors do not stop other workers: every item is processed so the
///   lowest-index error is deterministic.
pub fn try_parallel_indexed_governed<R, E, F, G, P>(
    total: usize,
    threads: usize,
    gate: G,
    on_panic: P,
    work: F,
) -> Dispatched<R, E>
where
    R: Send,
    E: Send,
    F: Fn(usize) -> Result<R, E> + Sync,
    G: Fn() -> Result<(), E> + Sync,
    P: Fn(usize, String) -> E + Sync,
{
    let run = |i: usize| -> Result<R, E> {
        match catch_unwind(AssertUnwindSafe(|| work(i))) {
            Ok(r) => r,
            Err(payload) => Err(on_panic(i, panic_payload_message(&*payload))),
        }
    };

    if threads <= 1 || total <= 1 {
        let inline = || {
            let mut out = Vec::with_capacity(total);
            for i in 0..total {
                gate()?;
                // Inline: the first error is the lowest-index error.
                out.push(run(i)?);
            }
            Ok(out)
        };
        return Dispatched { results: inline(), joined: 0 };
    }

    let dispatcher = MorselDispatcher::new(total);
    let aborted = AtomicBool::new(false);
    let joined = AtomicUsize::new(0);
    let gate_error: Mutex<Option<E>> = Mutex::new(None);
    let collected: Mutex<Vec<(usize, Result<R, E>)>> =
        Mutex::new(Vec::with_capacity(total));
    let workers = threads.min(total);
    let worker = |helper: bool| {
        let mut local = Vec::new();
        while !aborted.load(Ordering::Relaxed) {
            let Some(i) = dispatcher.claim() else { break };
            if helper && local.is_empty() {
                joined.fetch_add(1, Ordering::Relaxed);
            }
            if let Err(e) = gate() {
                aborted.store(true, Ordering::Relaxed);
                let mut slot = gate_error.lock().unwrap_or_else(PoisonError::into_inner);
                if slot.is_none() {
                    *slot = Some(e);
                }
                break;
            }
            local.push((i, run(i)));
        }
        collected.lock().unwrap_or_else(PoisonError::into_inner).extend(local);
    };
    // The calling thread is one of the workers: it would only wait for them,
    // and a pipeline of a few morsels takes no wake-up at all.
    with_helpers(workers - 1, &|| worker(true), || worker(false));
    let joined = joined.into_inner();
    if let Some(e) = gate_error.into_inner().unwrap_or_else(PoisonError::into_inner) {
        return Dispatched { results: Err(e), joined };
    }
    let mut pairs = collected.into_inner().unwrap_or_else(PoisonError::into_inner);
    pairs.sort_by_key(|(i, _)| *i);
    debug_assert_eq!(pairs.len(), total);
    let results = pairs.into_iter().map(|(_, r)| r).collect();
    Dispatched { results, joined }
}

// ---------------------------------------------------------------------------
// The pool
// ---------------------------------------------------------------------------

/// The process-wide pool: the tickets posted and not yet taken, and the
/// parked helpers that take them.
struct Pool {
    state: Mutex<PoolState>,
    /// Signalled once per posted ticket.
    posted: Condvar,
}

struct PoolState {
    tickets: VecDeque<Ticket>,
    /// Helpers spawned so far.
    helpers: usize,
}

static POOL: Pool = Pool {
    state: Mutex::new(PoolState { tickets: VecDeque::new(), helpers: 0 }),
    posted: Condvar::new(),
};

/// One helper's share of a call: the call's worker closure, lent with its
/// lifetime erased (see [`with_helpers`]), and where to report back.
struct Ticket {
    job: &'static (dyn Fn() + Sync),
    call: Arc<Settle>,
}

/// How a call's taken tickets ended, and the signal that one did.
#[derive(Default)]
struct Settle {
    state: Mutex<Settled>,
    done: Condvar,
}

#[derive(Default)]
struct Settled {
    finished: usize,
    /// The first panic that escaped a ticket's job.
    panic: Option<Box<dyn Any + Send>>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Every critical section here only moves whole values: a guard a
    // panicking thread poisoned still guards a consistent state.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Runs `own` on this thread while up to `helpers` pool helpers run `job`,
/// and returns once every helper that took a ticket has finished it. The
/// first panic that escaped `job` on a helper is re-raised here, after
/// that; a panic in `own` unwinds through here after the same wait.
#[allow(unsafe_code)]
fn with_helpers(helpers: usize, job: &(dyn Fn() + Sync), own: impl FnOnce()) {
    // SAFETY: `job` is borrowed for this call only, and the ticket outlives
    // that borrow on paper alone: the helper that takes it is the only
    // place it is called, and `Lent` — dropped before this function
    // returns or unwinds — either withdraws every untaken ticket, so no
    // helper ever sees it, or waits until the helper that took it has
    // counted it finished, which it does after its last use of `job`. This
    // is the lifetime erasure std makes internally for scoped threads.
    let job: &'static (dyn Fn() + Sync) = unsafe { std::mem::transmute(job) };
    let lent = Lent { call: Arc::new(Settle::default()), posted: helpers };
    let spawn = {
        let mut pool = lock(&POOL.state);
        for _ in 0..helpers {
            pool.tickets.push_back(Ticket { job, call: lent.call.clone() });
        }
        let had = pool.helpers;
        pool.helpers = had.max(helpers);
        had..pool.helpers
    };
    for _ in 0..helpers {
        POOL.posted.notify_one();
    }
    for n in spawn {
        let spawned = std::thread::Builder::new()
            .name(format!("snowdb-morsel-{n}"))
            .spawn(help);
        if spawned.is_err() {
            // No thread to be had: the pool stays smaller, and the tickets
            // go to the helpers there are or back to the caller.
            lock(&POOL.state).helpers -= 1;
        }
    }
    own();
    let call = lent.call.clone();
    drop(lent);
    let panic = lock(&call.state).panic.take();
    if let Some(payload) = panic {
        resume_unwind(payload);
    }
}

/// Withdraws a call's untaken tickets and waits for its taken ones, also
/// while the caller unwinds.
struct Lent {
    call: Arc<Settle>,
    posted: usize,
}

impl Drop for Lent {
    fn drop(&mut self) {
        let withdrawn = {
            let mut pool = lock(&POOL.state);
            let before = pool.tickets.len();
            pool.tickets.retain(|t| !Arc::ptr_eq(&t.call, &self.call));
            before - pool.tickets.len()
        };
        let taken = self.posted - withdrawn;
        let mut state = lock(&self.call.state);
        while state.finished < taken {
            state = self.call.done.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A helper's life: take a ticket, run its job, report, park again.
fn help() {
    loop {
        let Ticket { job, call } = {
            let mut pool = lock(&POOL.state);
            loop {
                match pool.tickets.pop_front() {
                    Some(t) => break t,
                    None => pool = POOL.posted.wait(pool).unwrap_or_else(PoisonError::into_inner),
                }
            }
        };
        let outcome = catch_unwind(AssertUnwindSafe(job));
        // `job` is not touched past this point: once counted, its call may
        // return and its borrows end.
        let mut state = lock(&call.state);
        state.finished += 1;
        if let Err(payload) = outcome {
            state.panic.get_or_insert(payload);
        }
        drop(state);
        call.done.notify_all();
    }
}

/// Helpers the pool has spawned so far.
#[cfg(test)]
fn helpers_spawned() -> usize {
    lock(&POOL.state).helpers
}

/// Renders a panic payload as a message string (mirrors
/// `govern::panic_message`; duplicated here so the storage layer stays
/// independent of the governance module).
fn panic_payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// The entry point without a gate or a panic: what the executor's work
    /// looks like when nothing trips.
    fn run<R: Send>(
        total: usize,
        threads: usize,
        work: impl Fn(usize) -> Result<R, usize> + Sync,
    ) -> Result<Vec<R>, usize> {
        try_parallel_indexed_governed(total, threads, || Ok(()), |i, _| i, work).results
    }

    fn on_helper() -> bool {
        std::thread::current().name().is_some_and(|n| n.starts_with("snowdb-morsel-"))
    }

    #[test]
    fn preserves_index_order() {
        for threads in [1, 2, 4, 7] {
            let out = run(100, threads, |i| Ok(i * 3)).unwrap();
            assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_index_claimed_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        run(64, 4, |i| Ok(hits[i].fetch_add(1, Ordering::Relaxed))).unwrap();
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn lowest_index_error_wins() {
        for threads in [1, 3] {
            let err = run(32, threads, |i| if i % 10 == 7 { Err(i) } else { Ok(i) }).unwrap_err();
            assert_eq!(err, 7);
        }
    }

    #[test]
    fn empty_and_singleton_ranges() {
        assert!(run(0, 4, Ok).unwrap().is_empty());
        assert_eq!(run(1, 4, |i| Ok(i + 1)).unwrap(), vec![1]);
    }

    /// A task that dispatches again — a helper posting tickets while it
    /// holds one — gets its results in order, whoever takes them.
    #[test]
    fn nested_calls_return_in_index_order() {
        for threads in [2, 4, 8] {
            let out = run(16, threads, |i| {
                let inner = run(12, threads, |j| Ok(i * 100 + j))?;
                Ok(inner.iter().sum::<usize>())
            })
            .unwrap();
            let want: Vec<usize> = (0..16).map(|i| (0..12).map(|j| i * 100 + j).sum()).collect();
            assert_eq!(out, want, "{threads} threads");
        }
    }

    /// Callers on several threads share the pool: each gets its own results.
    #[test]
    fn concurrent_callers_get_their_own_results() {
        let callers: Vec<_> = (0..4)
            .map(|caller| {
                std::thread::spawn(move || {
                    for call in 0..200 {
                        let threads = 2 + (caller + call) % 3;
                        let out = run(9, threads, |i| Ok(caller * 1_000 + call + i)).unwrap();
                        let want: Vec<usize> = (0..9).map(|i| caller * 1_000 + call + i).collect();
                        assert_eq!(out, want, "caller {caller} call {call}");
                    }
                })
            })
            .collect();
        for c in callers {
            c.join().unwrap();
        }
    }

    /// Blocks until `cond` holds; a test fails rather than hangs when no
    /// helper comes.
    fn wait_for(cond: impl Fn() -> bool) {
        let start = std::time::Instant::now();
        while !cond() {
            assert!(start.elapsed() < Duration::from_secs(20), "no helper joined");
            std::thread::yield_now();
        }
    }

    /// A gate that panics on a helper — an injected fault at a claim —
    /// panics the call with that payload once the call is settled, and the
    /// helper lives on to take later tickets. The caller holds its first
    /// morsel until a helper has joined, so a helper takes part.
    #[test]
    fn a_gate_panic_on_a_helper_reaches_the_caller_and_the_helper_survives() {
        let armed = AtomicBool::new(true);
        let victim = Mutex::new(None);
        let gate = || {
            if on_helper() && armed.swap(false, Ordering::SeqCst) {
                *victim.lock().unwrap() = std::thread::current().name().map(str::to_string);
                panic!("injected at the gate");
            }
            Ok(())
        };
        let work = |i: usize| {
            if !on_helper() && i == 0 {
                wait_for(|| !armed.load(Ordering::SeqCst));
            }
            Ok::<_, usize>(i)
        };
        let call = catch_unwind(AssertUnwindSafe(|| {
            try_parallel_indexed_governed(4, 2, gate, |i, _| i, work)
        }));
        let payload = call.err().expect("the helper's panic reaches the caller");
        assert_eq!(panic_payload_message(&*payload), "injected at the gate");
        let victim = victim.into_inner().unwrap().expect("a helper tripped the gate");
        // The same helper takes tickets again; other tests share the pool,
        // so it may take a few calls to meet it.
        for _ in 0..1_000 {
            let helpers = Mutex::new(Vec::new());
            let out = run(4, 2, |i| {
                if on_helper() {
                    helpers.lock().unwrap().push(std::thread::current().name().map(str::to_string));
                } else if i == 0 {
                    wait_for(|| !helpers.lock().unwrap().is_empty());
                }
                Ok(i)
            });
            assert_eq!(out.unwrap(), (0..4).collect::<Vec<_>>());
            if helpers.into_inner().unwrap().contains(&Some(victim.clone())) {
                return;
            }
        }
        panic!("{victim} never ran a morsel after its panic");
    }

    /// A gate error stops the call and is what it returns, on any worker.
    #[test]
    fn a_gate_error_wins() {
        for threads in [1, 2, 4] {
            let claims = AtomicUsize::new(0);
            let out = try_parallel_indexed_governed(
                64,
                threads,
                || if claims.fetch_add(1, Ordering::Relaxed) == 5 { Err(usize::MAX) } else { Ok(()) },
                |i, _| i,
                |i| if i == 40 { Err(i) } else { Ok(i) },
            );
            assert_eq!(out.results.unwrap_err(), usize::MAX, "{threads} threads");
        }
    }

    /// The pool grows to the largest degree asked for, minus the caller, and
    /// never spawns per call. No test in this crate asks for more than 8
    /// threads; a default degree may be the machine's.
    #[test]
    fn helpers_never_exceed_the_largest_degree() {
        let largest = std::thread::available_parallelism().map_or(8, |n| n.get()).max(8);
        for call in 0..1_000 {
            let threads = [2, 4, 8][call % 3];
            let d = try_parallel_indexed_governed(8, threads, || Ok(()), |i, _| i, Ok::<_, usize>);
            assert_eq!(d.results.unwrap(), (0..8).collect::<Vec<_>>());
            assert!(d.joined < threads);
            assert!(helpers_spawned() < largest, "{} helpers", helpers_spawned());
        }
        assert!(helpers_spawned() >= 1);
    }
}
