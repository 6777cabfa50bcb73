//! Deterministic fault injection, retry policy and the service clock.
//!
//! A robustness claim ("the batch survives panics, transient errors and
//! poisoned stores") is only testable if the faults themselves are
//! reproducible. Everything here is therefore *seeded and counter-driven*:
//! whether attempt `a` of job `j` panics, errors, stalls or poisons a store
//! is a pure function of `(plan seed, j, a)` — never of wall-clock
//! time, thread identity or interleaving. The same holds for the retry
//! policy's backoff (seeded jitter) and, under [`ClockKind::Virtual`], for
//! the latency those delays accrue. A fault-injection test is consequently
//! as deterministic as a fault-free one, which is what lets the service's
//! byte-identity contract extend to runs under fire.

use crate::{Result, ServiceError};

/// Kind of fault the harness injects into a job attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The attempt panics (through the worker's real `catch_unwind` path).
    Panic,
    /// The attempt fails with an injected [`ServiceError::Injected`] —
    /// classified retryable, standing in for transient infrastructure
    /// failures.
    Error,
    /// The attempt is delayed before running (slept under
    /// [`ClockKind::Wall`], accrued as virtual latency under
    /// [`ClockKind::Virtual`]).
    Delay,
    /// The lock of the job's session store is poisoned before the job's
    /// first attempt, exercising the stores' poison recovery.
    PoisonStore,
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::Panic => write!(f, "panic"),
            FaultKind::Error => write!(f, "error"),
            FaultKind::Delay => write!(f, "delay"),
            FaultKind::PoisonStore => write!(f, "poison-store"),
        }
    }
}

/// A deterministic, seeded fault plan threaded through
/// [`crate::ServiceConfig`].
///
/// Per (job, attempt) the plan draws one uniform variate from a counter
/// hash and partitions it: `[0, panic_rate)` panics,
/// `[panic_rate, panic_rate + error_rate)` errors, the next `delay_rate`
/// band delays. Store poisoning draws an *independent* per-job variate
/// (it composes with whatever the attempt does). All rates zero — the
/// default — means the plan is inert and the service behaves exactly as
/// before.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed of the fault stream. Two runs with equal seeds inject exactly
    /// the same faults into the same (job, attempt) pairs.
    pub seed: u64,
    /// Probability an attempt panics, in `[0, 1]`.
    pub panic_rate: f64,
    /// Probability an attempt fails with a retryable injected error.
    pub error_rate: f64,
    /// Probability an attempt is delayed before running.
    pub delay_rate: f64,
    /// Length of an injected delay in seconds (virtual or wall, per
    /// [`ClockKind`]).
    pub delay_seconds: f64,
    /// Probability a *job* poisons its scenario's session store before its
    /// first attempt.
    pub poison_rate: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The inert plan: no faults, ever.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            panic_rate: 0.0,
            error_rate: 0.0,
            delay_rate: 0.0,
            delay_seconds: 0.005,
            poison_rate: 0.0,
        }
    }

    /// Whether any fault can fire under this plan.
    pub fn is_active(&self) -> bool {
        self.panic_rate > 0.0
            || self.error_rate > 0.0
            || self.delay_rate > 0.0
            || self.poison_rate > 0.0
    }

    pub(crate) fn validate(&self) -> Result<()> {
        let rates = [
            ("panic_rate", self.panic_rate),
            ("error_rate", self.error_rate),
            ("delay_rate", self.delay_rate),
            ("poison_rate", self.poison_rate),
        ];
        for (field, rate) in rates {
            if !(0.0..=1.0).contains(&rate) {
                return Err(ServiceError::InvalidSpec {
                    field,
                    problem: "must be a probability in [0, 1]",
                });
            }
        }
        if !(self.delay_seconds >= 0.0 && self.delay_seconds.is_finite()) {
            return Err(ServiceError::InvalidSpec {
                field: "delay_seconds",
                problem: "must be non-negative and finite",
            });
        }
        Ok(())
    }

    /// The fault, if any, this plan injects into `attempt` (1-based) of job
    /// `job`. Deterministic: a pure function of `(seed, job, attempt)`.
    /// Never returns [`FaultKind::PoisonStore`] — poisoning is a per-job
    /// decision, see [`FaultPlan::poisons_store`].
    pub fn fault_for(&self, job: u64, attempt: u32) -> Option<FaultKind> {
        if !self.is_active() {
            return None;
        }
        let r = unit(mix3(self.seed, job, u64::from(attempt)));
        if r < self.panic_rate {
            Some(FaultKind::Panic)
        } else if r < self.panic_rate + self.error_rate {
            Some(FaultKind::Error)
        } else if r < self.panic_rate + self.error_rate + self.delay_rate {
            Some(FaultKind::Delay)
        } else {
            None
        }
    }

    /// Whether job `job` poisons its session store before its first
    /// attempt. Drawn independently of [`FaultPlan::fault_for`] (stream
    /// index 0 is reserved for poisoning; attempts are 1-based), so a job
    /// can poison its store *and* still run, which is exactly the recovery
    /// path worth proving.
    pub fn poisons_store(&self, job: u64) -> bool {
        self.poison_rate > 0.0 && unit(mix3(self.seed, job, 0)) < self.poison_rate
    }
}

/// Deterministic retry policy with seeded exponential backoff, threaded
/// through [`crate::ServiceConfig`].
///
/// Only outcomes classified retryable by [`ServiceError::is_retryable`]
/// (injected faults; real scheduler errors are deterministic and would just
/// reproduce) are retried, up to `max_attempts` total attempts per job.
/// Backoff before attempt `a` (2-based) is
/// `base · multiplier^(a-2) · (1 + jitter · u)` with `u` a seeded uniform
/// variate of `(job, a)` — fully reproducible, and instant under
/// [`ClockKind::Virtual`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per job, including the first (`1` disables retries).
    pub max_attempts: u32,
    /// Backoff before the first retry, in seconds.
    pub backoff_base_seconds: f64,
    /// Multiplier applied per further retry (exponential backoff).
    pub backoff_multiplier: f64,
    /// Jitter fraction in `[0, 1]`: each backoff is stretched by up to this
    /// fraction, deterministically per (job, attempt).
    pub backoff_jitter: f64,
    /// Seed of the jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::disabled()
    }
}

impl RetryPolicy {
    /// No retries: every job gets exactly one attempt (the default).
    pub fn disabled() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff_base_seconds: 0.01,
            backoff_multiplier: 2.0,
            backoff_jitter: 0.1,
            seed: 0,
        }
    }

    /// Retries with the default backoff shape and `max_attempts` total
    /// attempts per job.
    pub fn retries(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts,
            ..RetryPolicy::disabled()
        }
    }

    pub(crate) fn validate(&self) -> Result<()> {
        if self.max_attempts == 0 {
            return Err(ServiceError::InvalidSpec {
                field: "max_attempts",
                problem: "must be at least 1",
            });
        }
        if !(self.backoff_base_seconds >= 0.0 && self.backoff_base_seconds.is_finite()) {
            return Err(ServiceError::InvalidSpec {
                field: "backoff_base_seconds",
                problem: "must be non-negative and finite",
            });
        }
        if !(self.backoff_multiplier >= 1.0 && self.backoff_multiplier.is_finite()) {
            return Err(ServiceError::InvalidSpec {
                field: "backoff_multiplier",
                problem: "must be at least 1 and finite",
            });
        }
        if !(0.0..=1.0).contains(&self.backoff_jitter) {
            return Err(ServiceError::InvalidSpec {
                field: "backoff_jitter",
                problem: "must be a fraction in [0, 1]",
            });
        }
        Ok(())
    }

    /// Deterministic backoff in seconds before `attempt` (2-based: the
    /// first retry is attempt 2) of job `job`.
    pub fn backoff_seconds(&self, job: u64, attempt: u32) -> f64 {
        let exponent = attempt.saturating_sub(2);
        let jitter = self.backoff_jitter
            * unit(mix3(
                self.seed ^ 0x0062_6163_6b6f_6666,
                job,
                u64::from(attempt),
            ));
        self.backoff_base_seconds * self.backoff_multiplier.powi(exponent as i32) * (1.0 + jitter)
    }
}

/// Which clock delays, backoffs and latency measurements run against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClockKind {
    /// Real time: injected delays and retry backoffs sleep, and job latency
    /// is measured wall-clock. The production setting.
    #[default]
    Wall,
    /// Virtual time: delays and backoffs only accrue simulated latency
    /// seconds without sleeping, so fault-and-retry tests run instantly and
    /// reproducibly. Job latency under this clock is the accrued virtual
    /// time — a deterministic quantity.
    Virtual,
}

/// SplitMix64-style counter hash of (seed, job, stream index): the one
/// source of randomness in this crate, behind fault decisions, backoff
/// jitter and the corpus generator's seeds and variates — statistically
/// unrelated outputs for neighbouring counters, bit-reproducible everywhere.
pub(crate) fn mix3(seed: u64, job: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(job.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(index.wrapping_mul(0x94d0_49bb_1331_11eb));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Maps a hash to a uniform variate in `[0, 1)` (53 mantissa bits).
pub(crate) fn unit(hash: u64) -> f64 {
    (hash >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_plan_never_fires() {
        let plan = FaultPlan::none();
        assert!(!plan.is_active());
        for job in 0..64 {
            for attempt in 1..=4 {
                assert_eq!(plan.fault_for(job, attempt), None);
            }
            assert!(!plan.poisons_store(job));
        }
    }

    #[test]
    fn decisions_are_deterministic_and_attempt_dependent() {
        let plan = FaultPlan {
            seed: 7,
            panic_rate: 0.2,
            error_rate: 0.3,
            delay_rate: 0.2,
            poison_rate: 0.25,
            ..FaultPlan::none()
        };
        let mut differing_attempts = 0;
        let mut fired = 0;
        for job in 0..256 {
            let first = plan.fault_for(job, 1);
            assert_eq!(first, plan.fault_for(job, 1), "same inputs, same fault");
            assert_eq!(plan.poisons_store(job), plan.poisons_store(job));
            if first != plan.fault_for(job, 2) {
                differing_attempts += 1;
            }
            fired += usize::from(first.is_some());
        }
        // Rates sum to 0.7: roughly that fraction of first attempts fault,
        // and a retry must be able to escape a faulty first attempt.
        assert!((100..250).contains(&fired), "fired {fired}/256");
        assert!(differing_attempts > 50, "attempts must draw independently");
    }

    #[test]
    fn rates_partition_into_the_declared_kinds() {
        let plan = FaultPlan {
            seed: 11,
            panic_rate: 0.5,
            error_rate: 0.5,
            ..FaultPlan::none()
        };
        // With panic+error covering the whole unit interval, every attempt
        // faults with one of exactly those kinds.
        for job in 0..64 {
            let fault = plan.fault_for(job, 1).expect("rates cover [0,1)");
            assert!(matches!(fault, FaultKind::Panic | FaultKind::Error));
        }
        let poison_everything = FaultPlan {
            seed: 11,
            poison_rate: 1.0,
            ..FaultPlan::none()
        };
        assert!((0..32).all(|job| poison_everything.poisons_store(job)));
    }

    #[test]
    fn plan_validation_rejects_bad_rates() {
        assert!(FaultPlan::none().validate().is_ok());
        for bad in [-0.1, 1.5, f64::NAN] {
            let plan = FaultPlan {
                panic_rate: bad,
                ..FaultPlan::none()
            };
            assert!(plan.validate().is_err(), "panic_rate {bad}");
        }
        let plan = FaultPlan {
            delay_seconds: f64::INFINITY,
            ..FaultPlan::none()
        };
        assert!(plan.validate().is_err());
    }

    #[test]
    fn backoff_grows_exponentially_with_seeded_jitter() {
        let policy = RetryPolicy {
            max_attempts: 4,
            backoff_base_seconds: 0.01,
            backoff_multiplier: 2.0,
            backoff_jitter: 0.5,
            seed: 3,
        };
        assert!(policy.validate().is_ok());
        for job in 0..16 {
            let b2 = policy.backoff_seconds(job, 2);
            let b3 = policy.backoff_seconds(job, 3);
            let b4 = policy.backoff_seconds(job, 4);
            assert_eq!(b2, policy.backoff_seconds(job, 2), "deterministic");
            // Each step is within [base·2^k, base·2^k·1.5].
            assert!((0.01..0.015).contains(&b2), "b2 = {b2}");
            assert!((0.02..0.03).contains(&b3), "b3 = {b3}");
            assert!((0.04..0.06).contains(&b4), "b4 = {b4}");
        }
        // Jitter off: the exact exponential sequence.
        let exact = RetryPolicy {
            backoff_jitter: 0.0,
            ..policy
        };
        assert_eq!(exact.backoff_seconds(9, 2), 0.01);
        assert_eq!(exact.backoff_seconds(9, 3), 0.02);
        assert_eq!(exact.backoff_seconds(9, 4), 0.04);
    }

    #[test]
    fn retry_policy_validation_rejects_bad_shapes() {
        assert!(RetryPolicy::disabled().validate().is_ok());
        assert_eq!(RetryPolicy::retries(3).max_attempts, 3);
        assert!(RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::disabled()
        }
        .validate()
        .is_err());
        assert!(RetryPolicy {
            backoff_multiplier: 0.5,
            ..RetryPolicy::disabled()
        }
        .validate()
        .is_err());
        assert!(RetryPolicy {
            backoff_base_seconds: f64::NAN,
            ..RetryPolicy::disabled()
        }
        .validate()
        .is_err());
        assert!(RetryPolicy {
            backoff_jitter: 2.0,
            ..RetryPolicy::disabled()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn clock_kind_defaults_to_wall() {
        assert_eq!(ClockKind::default(), ClockKind::Wall);
    }
}
