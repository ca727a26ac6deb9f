//! Morsel dispatching: work-stealing distribution of independent work items
//! (micro-partitions, batches) across the workers of one call: the calling
//! thread and threads spawned in a `thread::scope` for that call alone. No
//! pool outlives the call.
//!
//! The scheduling model follows morsel-driven parallelism: instead of
//! statically slicing the partition list per worker, every worker claims the
//! next unprocessed index from a shared atomic cursor, so a worker that lands
//! on cheap (e.g. pruned) partitions immediately steals more work
//! rather than idling at the barrier. Results are reassembled in index order,
//! which is what lets the parallel executor produce byte-identical output to
//! the serial one.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

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

/// Runs `work(i)` for every `i in 0..total` on up to `threads` workers — the
/// calling thread among them — and returns the results in index order, or
/// the error with the lowest index (the one serial execution would have hit
/// first), independent of worker timing. The one parallel primitive of the
/// executor, governed and panic-isolated:
///
/// - with `threads <= 1` (or a trivially small range) the work runs inline on
///   the calling thread — no spawning — which is the degradation path for
///   `SNOWDB_THREADS=1`;
/// - `gate` runs before every claim (and before every inline item). A gate
///   error — cancellation, deadline, budget, injected fault — aborts the
///   whole call promptly: workers stop claiming and the *first observed* gate
///   error is returned. Gate trips are inherently timing-dependent, so no
///   index ordering is imposed on them.
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
) -> Result<Vec<R>, E>
where
    R: Send,
    E: Send,
    F: Fn(usize) -> Result<R, E> + Sync,
    G: Fn() -> Result<(), E> + Sync,
    P: Fn(usize, String) -> E + Sync,
{
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let run = |i: usize| -> Result<R, E> {
        match catch_unwind(AssertUnwindSafe(|| work(i))) {
            Ok(r) => r,
            Err(payload) => Err(on_panic(i, panic_payload_message(&*payload))),
        }
    };

    if threads <= 1 || total <= 1 {
        let mut out = Vec::with_capacity(total);
        for i in 0..total {
            gate()?;
            // Inline: the first error is the lowest-index error.
            out.push(run(i)?);
        }
        return Ok(out);
    }

    let dispatcher = MorselDispatcher::new(total);
    let aborted = AtomicBool::new(false);
    let gate_error: Mutex<Option<E>> = Mutex::new(None);
    let collected: Mutex<Vec<(usize, Result<R, E>)>> =
        Mutex::new(Vec::with_capacity(total));
    let workers = threads.min(total);
    let worker = || {
        let mut local = Vec::new();
        while !aborted.load(Ordering::Relaxed) {
            let Some(i) = dispatcher.claim() else { break };
            if let Err(e) = gate() {
                aborted.store(true, Ordering::Relaxed);
                let mut slot = gate_error.lock().unwrap_or_else(|p| p.into_inner());
                if slot.is_none() {
                    *slot = Some(e);
                }
                break;
            }
            local.push((i, run(i)));
        }
        collected.lock().unwrap_or_else(|p| p.into_inner()).extend(local);
    };
    // The calling thread is one of the workers: it would only wait for them,
    // and a pipeline of a few morsels saves one spawn and one wake-up.
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(worker);
        }
        worker();
    });
    if let Some(e) = gate_error.into_inner().unwrap_or_else(|p| p.into_inner()) {
        return Err(e);
    }
    let mut pairs = collected.into_inner().unwrap_or_else(|p| p.into_inner());
    pairs.sort_by_key(|(i, _)| *i);
    debug_assert_eq!(pairs.len(), total);
    let mut out = Vec::with_capacity(total);
    for (_, r) in pairs {
        out.push(r?);
    }
    Ok(out)
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

    /// The entry point without a gate or a panic: what the executor's work
    /// looks like when nothing trips.
    fn run<R: Send>(
        total: usize,
        threads: usize,
        work: impl Fn(usize) -> Result<R, usize> + Sync,
    ) -> Result<Vec<R>, usize> {
        try_parallel_indexed_governed(total, threads, || Ok(()), |i, _| i, work)
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
}
