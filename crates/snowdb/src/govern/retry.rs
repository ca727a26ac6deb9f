//! Deterministic retry/backoff for optimistic commits.
//!
//! An optimistic writer that loses the manifest compare-and-swap race should
//! back off and retry on a fresh snapshot — but a production engine cannot
//! afford either unbounded retries (livelock dressed as patience) or
//! wall-clock-seeded jitter (unreproducible schedules). A [`RetryPolicy`] is
//! therefore a pure function of its seed: the delay before attempt `k` is an
//! exponentially growing, capped slot scaled by a splitmix64-derived jitter
//! factor in [50%, 100%], so two contending writers with different seeds
//! desynchronize while every schedule stays exactly reproducible — the same
//! discipline the chaos harness uses for fault schedules.

use std::time::Duration;

use super::chaos::splitmix64;
use crate::error::SnowError;

/// A bounded, seeded backoff schedule for [`SnowError::WriteConflict`] retries:
/// up to [`RetryPolicy::MAX_ATTEMPTS`] attempts, slots [`RetryPolicy::BASE`] ·
/// 2^k capped at [`RetryPolicy::CAP`] — enough to ride out a burst of
/// contending writers, bounded well under any statement timeout.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Jitter seed; schedules with equal seeds are identical.
    pub seed: u64,
}

impl RetryPolicy {
    /// Total attempts (first try included).
    pub const MAX_ATTEMPTS: u32 = 8;
    /// Backoff slot for the first retry; doubles per subsequent retry.
    pub const BASE: Duration = Duration::from_millis(1);
    /// Upper bound on the (pre-jitter) slot.
    pub const CAP: Duration = Duration::from_millis(32);

    /// The delay to sleep after failed attempt `attempt` (0-based). Pure in
    /// `(seed, attempt)`: the exponential slot `BASE · 2^attempt` is capped at
    /// `CAP`, then scaled by a jitter factor in [1/2, 1] drawn from
    /// `splitmix64(seed ^ attempt)`.
    pub fn delay(&self, attempt: u32) -> Duration {
        let slot = Self::BASE
            .saturating_mul(1u32.checked_shl(attempt).unwrap_or(u32::MAX))
            .min(Self::CAP);
        let h = splitmix64(self.seed ^ u64::from(attempt));
        // 512..=1023 out of 1024: jitter keeps at least half the slot so the
        // exponential shape survives, while desynchronizing equal policies
        // with different seeds.
        let num = 512 + (h & 511);
        slot.mul_f64(num as f64 / 1024.0)
    }

    /// The full backoff schedule: one delay per retry (so
    /// `MAX_ATTEMPTS - 1` entries).
    pub fn schedule(&self) -> Vec<Duration> {
        (0..Self::MAX_ATTEMPTS - 1).map(|a| self.delay(a)).collect()
    }
}

/// Runs `f` under `policy`, retrying only on [`SnowError::WriteConflict`].
/// Each call receives the 0-based attempt index; the final conflict is
/// surfaced with its `attempts` count patched to the true total.
pub fn run<T>(
    policy: &RetryPolicy,
    mut f: impl FnMut(u32) -> crate::error::Result<T>,
) -> crate::error::Result<T> {
    let attempts = RetryPolicy::MAX_ATTEMPTS;
    for attempt in 0..attempts {
        match f(attempt) {
            Err(SnowError::WriteConflict(mut trip)) => {
                if attempt + 1 >= attempts {
                    trip.attempts = attempts;
                    return Err(SnowError::WriteConflict(trip));
                }
                std::thread::sleep(policy.delay(attempt));
            }
            other => return other,
        }
    }
    unreachable!("retry loop returns from its last attempt")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The schedule is a pure function of the seed: recompute the expected
    /// delays from first principles and require exact equality.
    #[test]
    fn schedule_is_exact_for_a_fixed_seed() {
        let policy = RetryPolicy { seed: 0xDEC0DE };
        let got = policy.schedule();
        assert_eq!(got.len(), 7);
        let expected: Vec<Duration> = (0..7u32)
            .map(|a| {
                let slot = Duration::from_millis(1 << a).min(Duration::from_millis(32));
                let num = 512 + (splitmix64(0xDEC0DE ^ u64::from(a)) & 511);
                slot.mul_f64(num as f64 / 1024.0)
            })
            .collect();
        assert_eq!(got, expected);
        // Deterministic across calls; different per seed.
        assert_eq!(got, policy.schedule());
        assert_ne!(got, RetryPolicy { seed: 0xFACE }.schedule());
    }

    #[test]
    fn delays_stay_within_half_open_slot_and_respect_cap() {
        let policy = RetryPolicy { seed: 42 };
        for a in 0..RetryPolicy::MAX_ATTEMPTS + 4 {
            let d = policy.delay(a);
            let slot = RetryPolicy::BASE.saturating_mul(1 << a).min(RetryPolicy::CAP);
            assert!(d >= slot.mul_f64(0.5), "attempt {a}: {d:?} below half slot {slot:?}");
            assert!(d <= slot, "attempt {a}: {d:?} above slot {slot:?}");
        }
        // Huge attempt indices must not overflow.
        assert!(policy.delay(u32::MAX) <= RetryPolicy::CAP);
    }

    #[test]
    fn run_retries_conflicts_only_and_patches_attempts() {
        let policy = RetryPolicy { seed: 1 };
        // Conflict every time: surfaces after exactly MAX_ATTEMPTS tries.
        let mut calls = 0;
        let err = run(&policy, |_| -> crate::error::Result<()> {
            calls += 1;
            Err(SnowError::write_conflict("T", 1, 2, "always"))
        })
        .unwrap_err();
        assert_eq!(calls, RetryPolicy::MAX_ATTEMPTS);
        match err {
            SnowError::WriteConflict(trip) => assert_eq!(trip.attempts, RetryPolicy::MAX_ATTEMPTS),
            other => panic!("{other}"),
        }
        // Success on a later attempt stops retrying.
        let mut calls = 0;
        let v = run(&policy, |attempt| {
            calls += 1;
            if attempt < 1 {
                Err(SnowError::write_conflict("T", 1, 2, "once"))
            } else {
                Ok(7)
            }
        })
        .unwrap();
        assert_eq!((v, calls), (7, 2));
        // Non-conflict errors pass straight through.
        let mut calls = 0;
        let err = run(&policy, |_| -> crate::error::Result<()> {
            calls += 1;
            Err(SnowError::Exec("boom".into()))
        })
        .unwrap_err();
        assert_eq!(calls, 1);
        assert!(matches!(err, SnowError::Exec(_)));
    }
}
