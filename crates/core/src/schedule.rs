//! Test sessions and test schedules.

use std::collections::BTreeSet;
use std::fmt;

use thermsched_floorplan::BlockId;
use thermsched_soc::SystemUnderTest;
use thermsched_thermal::PowerMap;

use crate::{Result, ScheduleError};

/// One test session: a set of cores tested concurrently.
///
/// The session length is the longest core test in the session (all cores
/// start together; shorter tests simply finish earlier, as in session-based
/// test scheduling).
///
/// # Example
///
/// ```
/// use thermsched::TestSession;
/// use thermsched_soc::library;
///
/// let sut = library::alpha21364_sut();
/// let session = TestSession::new([0, 3, 5], &sut);
/// assert_eq!(session.core_count(), 3);
/// assert_eq!(session.duration(), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TestSession {
    pub(crate) cores: BTreeSet<BlockId>,
    pub(crate) duration: f64,
    pub(crate) total_power: f64,
}

impl TestSession {
    /// Creates a session from a set of core ids, taking the session duration
    /// and power from the system under test.
    ///
    /// # Panics
    ///
    /// Panics if any core id is out of range for the system under test.
    pub fn new<I: IntoIterator<Item = BlockId>>(cores: I, sut: &SystemUnderTest) -> Self {
        let cores: BTreeSet<BlockId> = cores.into_iter().collect();
        for &c in &cores {
            assert!(c < sut.core_count(), "core id {c} out of range");
        }
        let duration = cores
            .iter()
            .map(|&c| sut.test_time(c))
            .fold(0.0_f64, f64::max);
        let total_power = cores.iter().map(|&c| sut.test_power(c)).sum();
        TestSession {
            cores,
            duration,
            total_power,
        }
    }

    /// Cores tested in this session, in ascending id order.
    pub fn cores(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.cores.iter().copied()
    }

    /// Number of cores in the session.
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// Returns `true` if the session tests no cores.
    pub fn is_empty(&self) -> bool {
        self.cores.is_empty()
    }

    /// Returns `true` if the session tests core `id`.
    pub fn contains(&self, id: BlockId) -> bool {
        self.cores.contains(&id)
    }

    /// Session length in seconds (the longest core test in the session).
    pub fn duration(&self) -> f64 {
        self.duration
    }

    /// Sum of the test powers of the session's cores, in watts.
    pub fn total_power(&self) -> f64 {
        self.total_power
    }

    /// Builds the per-block power map of this session (active cores dissipate
    /// their test power, all other cores are idle).
    ///
    /// # Errors
    ///
    /// Returns an error if a power value is rejected by the power map, which
    /// cannot happen for a session built from a valid [`SystemUnderTest`].
    pub fn power_map(&self, sut: &SystemUnderTest) -> Result<PowerMap> {
        let mut power = PowerMap::zeros(sut.core_count());
        for &c in &self.cores {
            power
                .set(c, sut.test_power(c))
                .map_err(ScheduleError::from)?;
        }
        Ok(power)
    }
}

impl fmt::Display for TestSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ids: Vec<String> = self.cores.iter().map(|c| c.to_string()).collect();
        write!(
            f,
            "{{{}}} ({:.1} W, {:.2} s)",
            ids.join(", "),
            self.total_power,
            self.duration
        )
    }
}

/// An ordered list of test sessions covering (part of) the system under test.
///
/// # Example
///
/// ```
/// use thermsched::{TestSchedule, TestSession};
/// use thermsched_soc::library;
///
/// let sut = library::alpha21364_sut();
/// let mut schedule = TestSchedule::new();
/// schedule.push(TestSession::new([0, 1], &sut));
/// schedule.push(TestSession::new([2], &sut));
/// assert_eq!(schedule.session_count(), 2);
/// assert_eq!(schedule.total_length(), 2.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TestSchedule {
    pub(crate) sessions: Vec<TestSession>,
}

impl TestSchedule {
    /// Creates an empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a session.
    pub fn push(&mut self, session: TestSession) {
        self.sessions.push(session);
    }

    /// Number of sessions.
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Returns `true` if the schedule has no sessions.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// Borrows the sessions in execution order.
    pub fn sessions(&self) -> &[TestSession] {
        &self.sessions
    }

    /// Session at `index`.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::SessionIndexOutOfRange`] if `index` is out of
    /// range.
    pub fn session(&self, index: usize) -> Result<&TestSession> {
        self.sessions
            .get(index)
            .ok_or(ScheduleError::SessionIndexOutOfRange {
                index,
                count: self.sessions.len(),
            })
    }

    /// Total schedule length in seconds: the sum of session durations
    /// (sessions run one after another).
    pub fn total_length(&self) -> f64 {
        self.sessions.iter().map(TestSession::duration).sum()
    }

    /// Total number of core tests over all sessions.
    pub fn scheduled_core_count(&self) -> usize {
        self.sessions.iter().map(TestSession::core_count).sum()
    }

    /// Returns `true` if every core of the system appears in exactly one
    /// session.
    pub fn covers_exactly_once(&self, core_count: usize) -> bool {
        let mut seen = vec![0usize; core_count];
        for s in &self.sessions {
            for c in s.cores() {
                if c >= core_count {
                    return false;
                }
                seen[c] += 1;
            }
        }
        seen.iter().all(|&n| n == 1)
    }

    /// Iterates over the sessions.
    pub fn iter(&self) -> impl Iterator<Item = &TestSession> {
        self.sessions.iter()
    }
}

impl fmt::Display for TestSchedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "TestSchedule: {} sessions, total length {:.2} s",
            self.session_count(),
            self.total_length()
        )?;
        for (i, s) in self.sessions.iter().enumerate() {
            writeln!(f, "  session {i}: {s}")?;
        }
        Ok(())
    }
}

impl FromIterator<TestSession> for TestSchedule {
    fn from_iter<T: IntoIterator<Item = TestSession>>(iter: T) -> Self {
        TestSchedule {
            sessions: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thermsched_soc::library;

    #[test]
    fn session_duration_is_the_longest_test() {
        let sut = library::alpha21364_sut();
        let s = TestSession::new([0, 1, 2], &sut);
        assert_eq!(s.duration(), 1.0);
        assert_eq!(s.core_count(), 3);
        assert!(s.contains(1));
        assert!(!s.contains(7));
        assert!(!s.is_empty());
    }

    #[test]
    fn session_power_map_marks_only_active_cores() {
        let sut = library::alpha21364_sut();
        let s = TestSession::new([2, 4], &sut);
        let p = s.power_map(&sut).unwrap();
        assert_eq!(p.active_blocks(), vec![2, 4]);
        assert!((p.power(2) - sut.test_power(2)).abs() < 1e-12);
        assert_eq!(p.power(0), 0.0);
        assert!((s.total_power() - sut.test_power(2) - sut.test_power(4)).abs() < 1e-12);
    }

    #[test]
    fn session_deduplicates_cores() {
        let sut = library::alpha21364_sut();
        let s = TestSession::new([3, 3, 3], &sut);
        assert_eq!(s.core_count(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn session_rejects_unknown_core() {
        let sut = library::alpha21364_sut();
        let _ = TestSession::new([99], &sut);
    }

    #[test]
    fn schedule_length_and_coverage() {
        let sut = library::alpha21364_sut();
        let mut sched = TestSchedule::new();
        sched.push(TestSession::new(0..5, &sut));
        sched.push(TestSession::new(5..10, &sut));
        sched.push(TestSession::new(10..15, &sut));
        assert_eq!(sched.session_count(), 3);
        assert_eq!(sched.total_length(), 3.0);
        assert_eq!(sched.scheduled_core_count(), 15);
        assert!(sched.covers_exactly_once(15));
        assert!(!sched.covers_exactly_once(16));
        assert!(sched.session(3).is_err());
        assert_eq!(sched.session(0).unwrap().core_count(), 5);
    }

    #[test]
    fn coverage_detects_duplicates_and_gaps() {
        let sut = library::alpha21364_sut();
        let duplicated: TestSchedule = vec![
            TestSession::new([0, 1], &sut),
            TestSession::new([1, 2], &sut),
        ]
        .into_iter()
        .collect();
        assert!(!duplicated.covers_exactly_once(3));

        let gap: TestSchedule = vec![TestSession::new([0], &sut)].into_iter().collect();
        assert!(!gap.covers_exactly_once(2));
    }

    #[test]
    fn display_formats() {
        let sut = library::alpha21364_sut();
        let mut sched = TestSchedule::new();
        sched.push(TestSession::new([0, 1], &sut));
        let text = format!("{sched}");
        assert!(text.contains("1 sessions"));
        assert!(text.contains("session 0"));
        assert!(format!("{}", sched.session(0).unwrap()).contains("{0, 1}"));
    }

    #[test]
    fn empty_schedule_properties() {
        let sched = TestSchedule::new();
        assert!(sched.is_empty());
        assert_eq!(sched.total_length(), 0.0);
        assert!(sched.covers_exactly_once(0));
        assert!(!sched.covers_exactly_once(1));
    }
}
