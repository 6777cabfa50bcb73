//! Cooperative checkpoints on the scheduling path.
//!
//! A scheduling run is a long loop of expensive validating simulations. A
//! service that promises latency bounds needs a way to stop a run that has
//! outlived its budget — without killing the thread, without poisoning the
//! shared caches, and without breaking determinism. The mechanism here is
//! cooperative: the scheduler calls [`ScheduleCheckpoint::check`] at
//! well-defined points (after phase-1 characterisation and before every
//! phase-2 iteration) with a deterministic [`ScheduleProgress`] snapshot,
//! and the checkpoint either lets the run continue or names an
//! [`InterruptReason`]. An interrupted run returns
//! [`crate::ScheduleError::Interrupted`] after flushing every simulation it
//! already paid for to the shared session store, so sibling runs never
//! re-pay that work.
//!
//! Determinism: the snapshot contains only *simulated* quantities (effort in
//! simulated seconds, iteration and session counts) — never wall-clock time.
//! A checkpoint that decides purely on the snapshot therefore interrupts at
//! the same iteration on every machine and at every worker count, which is
//! what lets deadline outcomes live inside the service layer's byte-identity
//! contract. Checkpoints that consult outside state (a cancellation flag,
//! say) trade that reproducibility away knowingly.

use std::ops::ControlFlow;

/// Deterministic snapshot of a scheduling run, handed to a
/// [`ScheduleCheckpoint`] before every phase-2 iteration (and once right
/// after phase-1 characterisation, with zero iterations).
///
/// All quantities are simulated-domain: they depend only on the system under
/// test and the configuration, never on wall-clock time or thread
/// interleaving.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleProgress {
    /// Completed phase-2 iterations so far.
    pub iterations: usize,
    /// Sessions committed to the schedule so far.
    pub committed_sessions: usize,
    /// Simulated seconds of phase-2 validation effort accrued so far
    /// (the paper's `simulation_effort` metric).
    pub simulation_effort: f64,
    /// Simulated seconds of phase-1 per-core characterisation effort.
    pub characterization_effort: f64,
}

impl ScheduleProgress {
    /// Total simulated effort spent so far: characterisation plus
    /// validation. This is the quantity a deadline budget is compared
    /// against.
    pub fn spent_effort(&self) -> f64 {
        self.simulation_effort + self.characterization_effort
    }
}

/// Why a checkpoint interrupted a scheduling run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InterruptReason {
    /// The run's simulated-effort budget is exhausted.
    DeadlineExceeded {
        /// The budget that was exceeded, in simulated seconds.
        budget: f64,
    },
    /// The caller asked the run to stop (e.g. a service draining its
    /// worker pool).
    Cancelled,
}

impl std::fmt::Display for InterruptReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InterruptReason::DeadlineExceeded { budget } => {
                write!(f, "deadline budget of {budget} simulated seconds exceeded")
            }
            InterruptReason::Cancelled => write!(f, "cancelled by the caller"),
        }
    }
}

/// A cooperative interruption hook consulted at scheduling checkpoints.
///
/// Implemented for any `Fn(&ScheduleProgress) -> ControlFlow<InterruptReason>`
/// closure, so ad-hoc checkpoints need no newtype:
///
/// ```
/// use std::ops::ControlFlow;
/// use thermsched::{InterruptReason, ScheduleProgress};
///
/// let budget = 40.0;
/// let checkpoint = move |p: &ScheduleProgress| {
///     if p.spent_effort() > budget {
///         ControlFlow::Break(InterruptReason::DeadlineExceeded { budget })
///     } else {
///         ControlFlow::Continue(())
///     }
/// };
/// # let _: &dyn thermsched::ScheduleCheckpoint = &checkpoint;
/// ```
pub trait ScheduleCheckpoint: Sync {
    /// Decides whether the run may continue. Returning
    /// `ControlFlow::Break(reason)` makes the scheduler stop before its next
    /// simulation and return [`crate::ScheduleError::Interrupted`].
    fn check(&self, progress: &ScheduleProgress) -> ControlFlow<InterruptReason>;
}

impl<F> ScheduleCheckpoint for F
where
    F: Fn(&ScheduleProgress) -> ControlFlow<InterruptReason> + Sync,
{
    fn check(&self, progress: &ScheduleProgress) -> ControlFlow<InterruptReason> {
        self(progress)
    }
}

/// A ready-made checkpoint that interrupts once total simulated effort
/// exceeds a budget. Purely simulated-domain, hence fully deterministic.
/// It is the one budget rule: the service's job deadlines check through it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EffortBudget {
    budget: f64,
}

impl EffortBudget {
    /// A checkpoint allowing at most `budget` simulated seconds of combined
    /// characterisation and validation effort.
    pub fn new(budget: f64) -> Self {
        EffortBudget { budget }
    }

    /// The configured budget in simulated seconds.
    pub fn budget(&self) -> f64 {
        self.budget
    }
}

impl ScheduleCheckpoint for EffortBudget {
    fn check(&self, progress: &ScheduleProgress) -> ControlFlow<InterruptReason> {
        if progress.spent_effort() > self.budget {
            ControlFlow::Break(InterruptReason::DeadlineExceeded {
                budget: self.budget,
            })
        } else {
            ControlFlow::Continue(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effort_budget_breaks_only_past_the_budget() {
        let budget = EffortBudget::new(10.0);
        let mut progress = ScheduleProgress {
            iterations: 0,
            committed_sessions: 0,
            simulation_effort: 4.0,
            characterization_effort: 6.0,
        };
        // Exactly at the budget is still within it.
        assert_eq!(budget.check(&progress), ControlFlow::Continue(()));
        progress.simulation_effort = 4.5;
        assert_eq!(
            budget.check(&progress),
            ControlFlow::Break(InterruptReason::DeadlineExceeded { budget: 10.0 })
        );
    }

    #[test]
    fn closures_are_checkpoints() {
        let cancelled = |_: &ScheduleProgress| ControlFlow::Break(InterruptReason::Cancelled);
        let as_dyn: &dyn ScheduleCheckpoint = &cancelled;
        let progress = ScheduleProgress {
            iterations: 3,
            committed_sessions: 2,
            simulation_effort: 1.0,
            characterization_effort: 1.0,
        };
        assert_eq!(
            as_dyn.check(&progress),
            ControlFlow::Break(InterruptReason::Cancelled)
        );
        assert_eq!(progress.spent_effort(), 2.0);
    }

    #[test]
    fn interrupt_reason_display() {
        let reason = InterruptReason::DeadlineExceeded { budget: 12.5 };
        assert!(reason.to_string().contains("12.5"));
        assert!(InterruptReason::Cancelled.to_string().contains("cancelled"));
    }
}
