//! Online scheduling context: time-varying power traces and warm starts.
//!
//! The paper's scheduler validates every candidate session from an ambient
//! die under a constant power map. Online re-scheduling breaks both
//! assumptions: arriving jobs carry a *power trace* (the per-session power
//! shape as a piecewise-constant profile) and may start from the thermal
//! state a previous job left behind. This module defines the two pieces the
//! scheduler needs to honour that without changing [`crate::SchedulerConfig`]
//! (which stays `Copy`):
//!
//! * [`TraceProfile`] — a power *shape*, expressed as scale factors over
//!   fractions of the session duration, so one profile applies to any
//!   candidate core set (the scheduler materialises it against each
//!   candidate's [`PowerMap`] via [`TraceProfile::materialise`]);
//! * [`OnlineContext`] — an optional profile plus an optional warm-start
//!   temperature vector. A run under a non-empty context keeps its results
//!   to itself: shared session stores hold constant-power results only.

use thermsched_thermal::{PowerMap, PowerTrace, Temperatures};

use crate::{Result, ScheduleError};

/// One segment of a [`TraceProfile`]: the session power is scaled by
/// `scale` for `fraction` of the session duration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSegment {
    /// Multiplier applied to the session's constant power map (non-negative
    /// and finite; `0.0` models an idle gap, `1.0` full test power).
    pub scale: f64,
    /// Fraction of the session duration this segment covers (positive and
    /// finite; all fractions of a profile sum to one).
    pub fraction: f64,
}

impl TraceSegment {
    /// Creates a segment (validated when the profile is built).
    pub fn new(scale: f64, fraction: f64) -> Self {
        TraceSegment { scale, fraction }
    }
}

/// A validated piecewise-constant power *shape*, applied to a session by
/// scaling its power map segment by segment.
///
/// # Example
///
/// ```
/// use thermsched::{TraceProfile, TraceSegment};
/// use thermsched_thermal::PowerMap;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Full power for the first half, idle for the second.
/// let profile = TraceProfile::new(vec![
///     TraceSegment::new(1.0, 0.5),
///     TraceSegment::new(0.0, 0.5),
/// ])?;
/// let power = PowerMap::from_vec(vec![10.0, 0.0])?;
/// let trace = profile.materialise(&power, 1.0)?;
/// assert_eq!(trace.phase_count(), 2);
/// assert_eq!(trace.total_duration(), 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TraceProfile {
    segments: Vec<TraceSegment>,
}

impl TraceProfile {
    /// Builds a profile from its segments.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::InvalidConfig`] if the segment list is empty, a
    /// scale is negative or non-finite, a fraction is non-positive or
    /// non-finite, or the fractions do not sum to one (within `1e-9`).
    pub fn new(segments: Vec<TraceSegment>) -> Result<Self> {
        if segments.is_empty() {
            return Err(ScheduleError::InvalidConfig {
                name: "trace profile segment count",
                value: 0.0,
            });
        }
        let mut total = 0.0;
        for segment in &segments {
            if !(segment.scale.is_finite() && segment.scale >= 0.0) {
                return Err(ScheduleError::InvalidConfig {
                    name: "trace segment scale",
                    value: segment.scale,
                });
            }
            if !(segment.fraction.is_finite() && segment.fraction > 0.0) {
                return Err(ScheduleError::InvalidConfig {
                    name: "trace segment fraction",
                    value: segment.fraction,
                });
            }
            total += segment.fraction;
        }
        if (total - 1.0).abs() > 1e-9 {
            return Err(ScheduleError::InvalidConfig {
                name: "trace segment fraction sum",
                value: total,
            });
        }
        Ok(TraceProfile { segments })
    }

    /// The constant-power profile: one segment at full scale. Materialises
    /// to the exact single-phase trace a plain session would simulate.
    pub fn constant() -> Self {
        TraceProfile {
            segments: vec![TraceSegment::new(1.0, 1.0)],
        }
    }

    /// Borrows the segments in order.
    pub fn segments(&self) -> &[TraceSegment] {
        &self.segments
    }

    /// Number of segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Materialises the shape against a concrete session: each segment
    /// becomes one [`PowerTrace`] phase with the session power scaled by
    /// `segment.scale` over `duration * segment.fraction` seconds.
    ///
    /// # Errors
    ///
    /// Propagates trace-construction failures (e.g. a non-finite duration).
    pub fn materialise(&self, power: &PowerMap, duration: f64) -> Result<PowerTrace> {
        let phases = self
            .segments
            .iter()
            .map(|segment| Ok((power.scaled(segment.scale)?, duration * segment.fraction)))
            .collect::<Result<Vec<_>>>()?;
        Ok(PowerTrace::new(phases)?)
    }
}

/// Everything an online (re-)scheduling run carries beyond its
/// [`crate::SchedulerConfig`]: an optional power-trace shape and an optional
/// warm-start temperature vector (one value per core, °C).
///
/// An empty context is exactly a classic offline run; the engine and the
/// scheduler normalise it away so offline cache entries and goldens are
/// untouched.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OnlineContext {
    trace: Option<TraceProfile>,
    /// Held as the block vector every validating simulation starts from.
    warm_start: Option<Temperatures>,
}

impl OnlineContext {
    /// Creates an empty context (equivalent to offline scheduling).
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a power-trace shape applied to every candidate session.
    #[must_use]
    pub fn with_trace(mut self, trace: TraceProfile) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Attaches per-core warm-start temperatures (°C): every validating
    /// simulation resumes from this state instead of an ambient die.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::InvalidConfig`] if the vector is empty or holds a
    /// non-finite temperature. The *length* is checked against the system
    /// under test by [`OnlineContext::check_core_count`], which a scheduler
    /// calls when the context reaches it.
    pub fn with_warm_start(mut self, temperatures: Vec<f64>) -> Result<Self> {
        if temperatures.is_empty() {
            return Err(ScheduleError::InvalidConfig {
                name: "warm start temperature count",
                value: 0.0,
            });
        }
        for &t in &temperatures {
            if !t.is_finite() {
                return Err(ScheduleError::InvalidConfig {
                    name: "warm start temperature",
                    value: t,
                });
            }
        }
        let blocks = temperatures.len();
        self.warm_start = Some(Temperatures::new(temperatures, blocks));
        Ok(self)
    }

    /// The attached trace shape, if any.
    pub fn trace(&self) -> Option<&TraceProfile> {
        self.trace.as_ref()
    }

    /// The attached warm-start temperatures, if any: the block-level
    /// [`Temperatures`] handed to
    /// [`thermsched_thermal::ThermalSimulator::simulate_trace`].
    pub fn warm_start(&self) -> Option<&Temperatures> {
        self.warm_start.as_ref()
    }

    /// Checks that the warm start, if any, holds one temperature per core
    /// of a system with `cores` cores.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::InvalidConfig`] naming the warm start's length.
    pub fn check_core_count(&self, cores: usize) -> Result<()> {
        match &self.warm_start {
            Some(warm) if warm.block_count() != cores => Err(ScheduleError::InvalidConfig {
                name: "warm start temperature count",
                value: warm.block_count() as f64,
            }),
            _ => Ok(()),
        }
    }

    /// `true` when the context adds nothing over an offline run.
    pub fn is_empty(&self) -> bool {
        self.trace.is_none() && self.warm_start.is_none()
    }

    /// Materialises the trace a candidate session must be validated
    /// against: the attached shape applied to the session power, or the
    /// single-phase constant trace when only a warm start is attached.
    ///
    /// # Errors
    ///
    /// See [`TraceProfile::materialise`].
    pub fn session_trace(&self, power: &PowerMap, duration: f64) -> Result<PowerTrace> {
        match &self.trace {
            Some(profile) => profile.materialise(power, duration),
            None => Ok(PowerTrace::constant(power.clone(), duration)?),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_are_validated() {
        assert!(matches!(
            TraceProfile::new(vec![]),
            Err(ScheduleError::InvalidConfig { .. })
        ));
        assert!(matches!(
            TraceProfile::new(vec![TraceSegment::new(-0.5, 1.0)]),
            Err(ScheduleError::InvalidConfig {
                name: "trace segment scale",
                ..
            })
        ));
        assert!(matches!(
            TraceProfile::new(vec![TraceSegment::new(1.0, 0.0)]),
            Err(ScheduleError::InvalidConfig {
                name: "trace segment fraction",
                ..
            })
        ));
        assert!(matches!(
            TraceProfile::new(vec![
                TraceSegment::new(1.0, 0.5),
                TraceSegment::new(0.5, 0.25)
            ]),
            Err(ScheduleError::InvalidConfig {
                name: "trace segment fraction sum",
                ..
            })
        ));
        let ok = TraceProfile::new(vec![
            TraceSegment::new(1.0, 0.5),
            TraceSegment::new(0.0, 0.5),
        ])
        .unwrap();
        assert_eq!(ok.segment_count(), 2);
        assert_eq!(TraceProfile::constant().segments()[0].scale, 1.0);
    }

    #[test]
    fn materialised_traces_scale_power_and_split_duration() {
        let profile = TraceProfile::new(vec![
            TraceSegment::new(1.0, 0.25),
            TraceSegment::new(0.5, 0.75),
        ])
        .unwrap();
        let power = PowerMap::from_vec(vec![8.0, 2.0]).unwrap();
        let trace = profile.materialise(&power, 2.0).unwrap();
        assert_eq!(trace.phase_count(), 2);
        assert_eq!(trace.phases()[0].0.power(0), 8.0);
        assert_eq!(trace.phases()[0].1, 0.5);
        assert_eq!(trace.phases()[1].0.power(0), 4.0);
        assert_eq!(trace.phases()[1].1, 1.5);
        assert!((trace.total_duration() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn warm_starts_are_validated_and_exposed_as_temperatures() {
        assert!(matches!(
            OnlineContext::new().with_warm_start(vec![]),
            Err(ScheduleError::InvalidConfig { .. })
        ));
        assert!(matches!(
            OnlineContext::new().with_warm_start(vec![80.0, f64::NAN]),
            Err(ScheduleError::InvalidConfig { .. })
        ));
        let ctx = OnlineContext::new()
            .with_warm_start(vec![81.0, 45.0, 60.0])
            .unwrap();
        let temps = ctx.warm_start().unwrap();
        assert_eq!(temps.block_count(), 3);
        assert_eq!(temps.block_temperatures(), &[81.0, 45.0, 60.0]);
        assert!(ctx.check_core_count(3).is_ok());
        assert!(matches!(
            ctx.check_core_count(4),
            Err(ScheduleError::InvalidConfig {
                name: "warm start temperature count",
                ..
            })
        ));
        assert!(OnlineContext::new().check_core_count(4).is_ok());
    }

    #[test]
    fn session_trace_falls_back_to_a_constant_phase() {
        let power = PowerMap::from_vec(vec![5.0]).unwrap();
        let warm_only = OnlineContext::new().with_warm_start(vec![70.0]).unwrap();
        let trace = warm_only.session_trace(&power, 1.0).unwrap();
        assert_eq!(trace.phase_count(), 1);
        assert_eq!(trace.phases()[0].0, power);
        assert_eq!(trace.phases()[0].1, 1.0);
    }
}
