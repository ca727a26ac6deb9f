//! Deterministic seeded fault injection for the governance layer.
//!
//! A [`ChaosSchedule`] rides inside a [`QueryGovernor`](super::QueryGovernor)
//! and fires at the classes of governance checkpoints:
//!
//! - [`ChaosSite::PartitionClaim`] — a morsel worker claiming a partition;
//! - [`ChaosSite::BatchStage`] — an operator's batch-boundary checkpoint;
//! - [`ChaosSite::BudgetAccount`] — a memory / bytes-scanned charge;
//! - [`ChaosSite::StoreRead`] — a lazy column-block read from a persistent
//!   partition file (rides in the query's governor like the sites above);
//! - [`ChaosSite::ManifestCommit`] — a step of the store's atomic catalog
//!   commit (armed on the [`Store`](crate::store::Store) itself, simulating a
//!   crash between temp-write and rename).
//!
//! At each hit the schedule decides — as a pure function of `(seed, site,
//! hit index)` via a splitmix64 hash — whether to inject, and whether the
//! fault is a typed error or a *real panic* (which the morsel layer must
//! isolate via `catch_unwind`). With one worker thread the whole schedule is
//! exactly reproducible from its seed; with many workers the set of decisions
//! is still seed-determined while the interleaving varies, which is precisely
//! the regime the soundness property targets: under every injected fault
//! schedule the query must end in either the correct result or a typed
//! [`SnowError`], and the engine must answer the next query correctly.
//!
//! To reproduce a CI failure, re-run the failing query with
//! `ChaosSchedule::new(seed)` (the seed is part of the uploaded repro) under
//! `QueryOptions { threads: Some(1), .. }`.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::{Result, SnowError};

/// Marker prefix carried by injected panic payloads, so
/// [`quiet_injected_panics`] can tell injected panics from real ones.
pub const CHAOS_PANIC_MARKER: &str = "chaos-injected-panic";

/// Silences the panic printout for *injected* panics only — a fault sweep
/// expects them by the hundreds — while real panics keep reporting through
/// the previous hook. Installs once per process; later calls do nothing.
pub fn quiet_injected_panics() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.contains(CHAOS_PANIC_MARKER) {
                prev(info);
            }
        }));
    });
}

/// Classes of injection points, matching the governance checkpoints.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosSite {
    /// A morsel worker claiming a micro-partition or batch index.
    PartitionClaim,
    /// An operator checkpoint at a batch boundary.
    BatchStage,
    /// A budget-accounting site (memory or bytes-scanned charge).
    BudgetAccount,
    /// A lazy column-block read from a persistent partition file.
    StoreRead,
    /// A step of the store's atomic manifest commit (temp-write / rename).
    /// Injection here simulates a crash mid-commit: the commit must either
    /// take effect entirely or leave the previous catalog version intact.
    ManifestCommit,
    /// A GC unlink of a partition file evicted from the retention window.
    /// Injection simulates a crash mid-sweep: the manifest commit has
    /// already happened, so recovery must converge (the file is re-swept on
    /// the next commit or open) and no retained version may lose a file.
    GcUnlink,
}

impl ChaosSite {
    fn tag(self) -> u64 {
        match self {
            ChaosSite::PartitionClaim => 0x9E37_79B9,
            ChaosSite::BatchStage => 0x85EB_CA6B,
            ChaosSite::BudgetAccount => 0xC2B2_AE35,
            ChaosSite::StoreRead => 0x27D4_EB2F,
            ChaosSite::ManifestCommit => 0x1656_67B1,
            ChaosSite::GcUnlink => 0x7FEB_352D,
        }
    }
}

/// A seeded fault schedule: decides per checkpoint hit whether to inject a
/// typed error or a panic.
#[derive(Debug)]
pub struct ChaosSchedule {
    seed: u64,
    /// Inject on roughly one in `period` hits (must be ≥ 1).
    period: u64,
    hits: AtomicU64,
}

impl ChaosSchedule {
    /// Default injection rate: roughly one fault per 31 checkpoint hits —
    /// frequent enough that most queries of the corpus see at least one
    /// fault, rare enough that some complete and exercise the compare path.
    pub const DEFAULT_PERIOD: u64 = 31;

    pub fn new(seed: u64) -> ChaosSchedule {
        ChaosSchedule::with_period(seed, ChaosSchedule::DEFAULT_PERIOD)
    }

    /// A schedule injecting on ~one in `period` hits.
    pub fn with_period(seed: u64, period: u64) -> ChaosSchedule {
        ChaosSchedule { seed, period: period.max(1), hits: AtomicU64::new(0) }
    }

    /// The schedule's seed (carried in repro reports).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Checkpoint hook: decides deterministically whether this hit injects a
    /// fault. Errors are typed [`SnowError::Internal`]; panics carry the
    /// [`CHAOS_PANIC_MARKER`] payload and must be isolated by the caller's
    /// `catch_unwind` layer.
    pub fn maybe_inject(&self, site: ChaosSite, op: &str) -> Result<()> {
        let hit = self.hits.fetch_add(1, Ordering::Relaxed);
        let h = splitmix64(self.seed ^ site.tag() ^ hit.wrapping_mul(0x2545_F491_4F6C_DD1D));
        if !h.is_multiple_of(self.period) {
            return Ok(());
        }
        // One in four injected faults is a real panic; the rest are errors.
        if (h >> 32).is_multiple_of(4) {
            panic!(
                "{CHAOS_PANIC_MARKER}: hit {hit} at {site:?} in {op} (seed {})",
                self.seed
            );
        }
        Err(SnowError::internal(
            op,
            format!("injected fault: hit {hit} at {site:?} (seed {})", self.seed),
        ))
    }
}

/// splitmix64: the standard 64-bit finalizer; good avalanche, no state.
/// Shared with [`retry`](super::retry) for seeded backoff jitter.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs a schedule to `n` hits, recording which hits inject and how.
    fn trace(seed: u64, n: u64) -> Vec<(u64, bool)> {
        let s = ChaosSchedule::new(seed);
        let mut out = Vec::new();
        for hit in 0..n {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                s.maybe_inject(ChaosSite::BatchStage, "t")
            }));
            out.push((hit, !matches!(&r, Ok(Ok(())))));
        }
        out
    }

    #[test]
    fn schedules_are_reproducible_per_seed() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let a = trace(7, 500);
        let b = trace(7, 500);
        let c = trace(8, 500);
        std::panic::set_hook(prev);
        assert_eq!(a, b);
        assert_ne!(a, c);
        // The default rate actually fires within a few hundred hits.
        assert!(a.iter().any(|(_, injected)| *injected));
        // ... and does not fire on every hit.
        assert!(a.iter().any(|(_, injected)| !*injected));
    }

    #[test]
    fn injected_errors_are_typed_and_carry_the_seed() {
        let s = ChaosSchedule::with_period(3, 1);
        let mut saw_error = false;
        for _ in 0..64 {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                s.maybe_inject(ChaosSite::BudgetAccount, "Join")
            }));
            if let Ok(Err(SnowError::Internal(t))) = r {
                assert_eq!(t.op, "Join");
                assert!(t.detail.contains("seed 3"), "{}", t.detail);
                saw_error = true;
                break;
            }
        }
        assert!(saw_error);
    }
}
