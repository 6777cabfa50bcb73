//! Caching of session thermal-validation results (the per-run map; the
//! shared, thread-safe store is [`crate::ShardedSessionCache`], held through
//! [`crate::SessionCacheHandle`]).

use std::collections::HashMap;

use thermsched_thermal::SessionThermalResult;

/// A cache of session thermal-validation results keyed by the sorted set of
/// active cores.
///
/// The scheduler's candidate generator frequently re-proposes a core set it
/// has already validated: discarded candidates recur while the adaptive
/// weights settle (with `weight_factor == 1.0` they recur *forever* — the
/// livelock guard exists for exactly this), and the single-core fallback
/// sessions of phase 2 repeat the phase-1 characterisation runs. Because the
/// simulator is deterministic and every session starts from an ambient die,
/// an identical core set always produces an identical
/// [`SessionThermalResult`], so re-simulation is pure waste. The cache makes
/// re-attempts free while leaving the paper's `simulation_effort` metric
/// untouched — effort is accrued per *attempt*, cached or not.
///
/// # Example
///
/// ```
/// use thermsched::SessionCache;
/// use thermsched_soc::library;
/// use thermsched_thermal::{RcThermalSimulator, ThermalSimulator};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let sut = library::alpha21364_sut();
/// let sim = RcThermalSimulator::from_floorplan(sut.floorplan())?;
/// let session = thermsched::TestSession::new([2, 0], &sut);
/// let result = sim.simulate_session(&session.power_map(&sut)?, session.duration())?;
///
/// let mut cache = SessionCache::new();
/// cache.insert(SessionCache::key(session.cores()), result);
/// assert!(cache.get(&SessionCache::key([0, 2])).is_some());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct SessionCache {
    entries: HashMap<Vec<usize>, SessionThermalResult>,
}

impl SessionCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Canonical cache key for a candidate core set: the cores in ascending
    /// order.
    pub fn key<I: IntoIterator<Item = usize>>(cores: I) -> Vec<usize> {
        let mut key: Vec<usize> = cores.into_iter().collect();
        key.sort_unstable();
        key
    }

    /// Cache key for a candidate core set validated under an online context
    /// (power trace and/or warm start, identified by
    /// [`crate::OnlineContext::context_hash`]): the sorted cores followed by
    /// a `usize::MAX` sentinel and the context hash. Core ids are dense
    /// indices that can never reach `usize::MAX`, so an online key can never
    /// collide with a plain [`SessionCache::key`] — traced or warm-started
    /// results therefore never alias the constant-power entries the offline
    /// scheduler shares.
    pub fn online_key<I: IntoIterator<Item = usize>>(cores: I, context: u64) -> Vec<usize> {
        let mut key = Self::key(cores);
        key.push(usize::MAX);
        key.push(context as usize);
        key
    }

    /// Number of cached results.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the cache holds no results.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns `true` if a result is cached for this key.
    pub fn contains(&self, key: &[usize]) -> bool {
        self.entries.contains_key(key)
    }

    /// Borrows the cached result for a key, if present.
    pub fn get(&self, key: &[usize]) -> Option<&SessionThermalResult> {
        self.entries.get(key)
    }

    /// Stores a result, replacing any previous entry for the same key.
    pub fn insert(&mut self, key: Vec<usize>, result: SessionThermalResult) {
        self.entries.insert(key, result);
    }

    /// Removes and returns the cached result for a key. The scheduler uses
    /// this on the commit path: a committed core set can never be
    /// re-attempted, and taking ownership lets the result's buffers move
    /// into the session record without cloning.
    pub fn take(&mut self, key: &[usize]) -> Option<SessionThermalResult> {
        self.entries.remove(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use thermsched_soc::library;
    use thermsched_thermal::{RcThermalSimulator, ThermalSimulator};

    fn result_for(cores: &[usize]) -> SessionThermalResult {
        let sut = library::alpha21364_sut();
        let sim = RcThermalSimulator::from_floorplan(sut.floorplan()).unwrap();
        let session = crate::TestSession::new(cores.iter().copied(), &sut);
        sim.simulate_session(&session.power_map(&sut).unwrap(), session.duration())
            .unwrap()
    }

    #[test]
    fn key_is_order_insensitive() {
        assert_eq!(SessionCache::key([3, 1, 2]), vec![1, 2, 3]);
        assert_eq!(SessionCache::key([1, 2, 3]), SessionCache::key([3, 2, 1]));
        assert_eq!(SessionCache::key([]), Vec::<usize>::new());
    }

    #[test]
    fn online_keys_never_alias_plain_keys() {
        let plain = SessionCache::key([2, 0]);
        let online = SessionCache::online_key([2, 0], 0xDEAD_BEEF);
        assert_eq!(online[..2], plain[..]);
        assert_eq!(online[2], usize::MAX);
        assert_eq!(online[3], 0xDEAD_BEEF_usize);
        assert_ne!(online, plain);
        // Distinct contexts produce distinct keys over the same cores.
        assert_ne!(online, SessionCache::online_key([2, 0], 1));
        assert_eq!(online, SessionCache::online_key([0, 2], 0xDEAD_BEEF));
    }

    #[test]
    fn cached_result_is_identical_to_a_fresh_simulation() {
        let fresh = result_for(&[0, 4, 7]);
        let mut cache = SessionCache::new();
        cache.insert(SessionCache::key([7, 0, 4]), fresh.clone());
        assert_eq!(cache.get(&SessionCache::key([0, 4, 7])), Some(&fresh));
        // A second simulation of the same set is deterministic, so the cache
        // entry matches what re-simulating would have produced.
        assert_eq!(cache.get(&[0, 4, 7][..]), Some(&result_for(&[0, 4, 7])));
    }

    #[test]
    fn take_removes_the_entry() {
        let mut cache = SessionCache::new();
        assert!(cache.is_empty());
        cache.insert(vec![1], result_for(&[1]));
        assert_eq!(cache.len(), 1);
        assert!(cache.contains(&[1]));
        let taken = cache.take(&[1]).unwrap();
        assert_eq!(taken, result_for(&[1]));
        assert!(cache.take(&[1]).is_none());
        assert!(cache.is_empty());
    }
}
