//! The session-result store shared by every run over one system and
//! backend, held through a [`SessionCacheHandle`].

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, TryLockError};

use thermsched_thermal::SessionThermalResult;

/// Point-in-time usage counters of a [`SessionCacheHandle`]'s store.
///
/// All counters are monotone over the store's lifetime and are maintained
/// with relaxed atomics: totals are exact, but a reader racing concurrent
/// writers may observe counters from slightly different instants.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Keys probed, a read of the characterisation counting one per core.
    pub lookups: u64,
    /// Probes that found a cached result (the warm hits).
    pub hits: u64,
    /// Results actually inserted (first-write-wins duplicates excluded).
    pub insertions: u64,
    /// Lock acquisitions that found the lock already held.
    pub contended_locks: u64,
}

impl StoreStats {
    /// Fraction of lookups served from the store, in `[0, 1]`; `0.0` when no
    /// lookup has happened yet.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

/// Counter by counter: the usage of two stores taken together.
impl std::ops::Add for StoreStats {
    type Output = StoreStats;

    fn add(self, other: StoreStats) -> StoreStats {
        StoreStats {
            lookups: self.lookups + other.lookups,
            hits: self.hits + other.hits,
            insertions: self.insertions + other.insertions,
            contended_locks: self.contended_locks + other.contended_locks,
        }
    }
}

/// The map and the characterisation behind a handle, plus their counters.
#[derive(Debug, Default)]
struct Store {
    entries: Mutex<HashMap<Vec<usize>, SessionThermalResult>>,
    characterisation: OnceLock<Vec<SessionThermalResult>>,
    lookups: AtomicU64,
    hits: AtomicU64,
    insertions: AtomicU64,
    contended_locks: AtomicU64,
}

/// A cloneable, thread-safe handle to one store of session
/// thermal-validation results, keyed by the session's core ids in
/// ascending order, beside the system's *characterisation*: every core
/// tested alone (phase 1 of Algorithm 1), indexed by core.
///
/// The [`crate::Engine`] owns one so that every run reusing its backend
/// starts warm, and the service layer gives each scenario one that all of
/// the scenario's jobs share. Cloning the handle clones the *handle*, not
/// the store: all clones see the same entries.
///
/// * **Determinism of content** — the simulators are deterministic, so the
///   result stored under a key is a pure function of the key (for a fixed
///   system and backend). First write wins; a racing duplicate insert is
///   dropped, and either race outcome stores the same bytes.
/// * **One characterisation** — set at most once, first write wins, and
///   read as a slice without the lock or a copy. It counts as the
///   single-core entries it stands for: one lookup, hit or insertion per
///   core, and one result per core in [`Self::len`].
/// * **Batch publication** — [`Self::store_batch`] takes the lock once, so
///   the scheduler's end-of-run publication costs one lock round trip
///   however many keys move.
/// * **Panic tolerance** — the lock recovers from poisoning: a panicked
///   holder can only have left whole, valid entries behind (every mutation
///   is a single map operation), so the store stays usable for the
///   surviving workers.
///
/// # Example
///
/// ```
/// use thermsched::SessionCacheHandle;
///
/// let cache = SessionCacheHandle::new();
/// let alias = cache.clone();
/// assert!(alias.is_empty());
/// assert_eq!(alias.lookup(&[0, 2]), None);
/// assert_eq!(cache.stats().lookups, 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SessionCacheHandle {
    inner: Arc<Store>,
}

impl SessionCacheHandle {
    /// Creates a handle to a fresh, empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The same as [`Self::new`]; the shard count is ignored.
    #[doc(hidden)]
    pub fn sharded(_shards: usize) -> Self {
        Self::new()
    }

    /// Locks the map, counting contention and recovering from poisoning.
    fn lock(&self) -> MutexGuard<'_, HashMap<Vec<usize>, SessionThermalResult>> {
        match self.inner.entries.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => {
                self.inner.contended_locks.fetch_add(1, Ordering::Relaxed);
                self.inner
                    .entries
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
            }
        }
    }

    /// Number of cached results, counting one per characterised core.
    pub fn len(&self) -> usize {
        self.lock().len() + self.inner.characterisation.get().map_or(0, Vec::len)
    }

    /// Returns `true` if the store holds no results.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns a clone of the cached result for a key, if present. Cloning
    /// keeps the lock hold time short and leaves the shared entry available
    /// to other runs.
    pub fn lookup(&self, key: &[usize]) -> Option<SessionThermalResult> {
        self.inner.lookups.fetch_add(1, Ordering::Relaxed);
        let found = self.lock().get(key).cloned();
        if found.is_some() {
            self.inner.hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// The characterisation of the store's `cores` cores, if one was
    /// published. Counts `cores` lookups, and `cores` hits when present.
    pub fn characterisation(&self, cores: usize) -> Option<&[SessionThermalResult]> {
        let cores = cores as u64;
        self.inner.lookups.fetch_add(cores, Ordering::Relaxed);
        let held = self.inner.characterisation.get()?;
        self.inner.hits.fetch_add(cores, Ordering::Relaxed);
        Some(held)
    }

    /// Publishes `results`, every core tested alone in core order, unless a
    /// characterisation is already held (first write wins), and returns the
    /// one the store holds. Counts one insertion per core when `results` is
    /// kept.
    pub fn characterise(&self, results: Vec<SessionThermalResult>) -> &[SessionThermalResult] {
        let cores = results.len() as u64;
        if self.inner.characterisation.set(results).is_ok() {
            self.inner.insertions.fetch_add(cores, Ordering::Relaxed);
        }
        self.inner.characterisation.get().expect("set by now")
    }

    /// Stores a result unless the key is already cached (first write wins).
    pub fn store(&self, key: Vec<usize>, result: SessionThermalResult) {
        self.store_batch(vec![(key, result)]);
    }

    /// Stores many results under one lock, first write wins per key — the
    /// scheduler publishes a whole run's fresh simulations through this at
    /// end-of-run instead of paying a lock round trip per candidate.
    pub fn store_batch(&self, entries: Vec<(Vec<usize>, SessionThermalResult)>) {
        let mut inserted = 0u64;
        {
            let mut map = self.lock();
            for (key, result) in entries {
                if let Entry::Vacant(slot) = map.entry(key) {
                    slot.insert(result);
                    inserted += 1;
                }
            }
        }
        self.inner.insertions.fetch_add(inserted, Ordering::Relaxed);
    }

    /// Usage counters accumulated so far.
    pub fn stats(&self) -> StoreStats {
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        StoreStats {
            lookups: load(&self.inner.lookups),
            hits: load(&self.inner.hits),
            insertions: load(&self.inner.insertions),
            contended_locks: load(&self.inner.contended_locks),
        }
    }

    /// Fault-injection hook: poisons the store's lock by panicking a scoped
    /// throwaway thread while it holds the lock. Entries are untouched — the
    /// store keeps serving them through the recovered lock, and this hook
    /// exists so harnesses can prove that recovery without reaching into
    /// store internals.
    pub fn poison(&self) {
        std::thread::scope(|scope| {
            let _ = scope
                .spawn(|| {
                    let _guard = self.lock();
                    panic!("injected store poison");
                })
                .join();
        });
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
    fn every_store_round_trips_and_counts() {
        let a = result_for(&[0, 4, 7]);
        let b = result_for(&[1]);
        let store = SessionCacheHandle::new();
        assert!(store.is_empty());
        assert_eq!(store.lookup(&[0, 4, 7]), None);
        store.store(vec![0, 4, 7], a.clone());
        store.store(vec![1], b.clone());
        // First write wins; a duplicate store is a no-op.
        store.store(vec![0, 4, 7], b.clone());
        assert_eq!(store.len(), 2);
        assert_eq!(store.lookup(&[0, 4, 7]), Some(a));
        assert_eq!(store.lookup(&[1]), Some(b));
        let stats = store.stats();
        assert_eq!(stats.lookups, 3);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.insertions, 2);
        assert!((stats.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(StoreStats::default().hit_rate(), 0.0);
        // Two stores' usage adds counter by counter.
        let twice = StoreStats {
            lookups: 6,
            hits: 4,
            insertions: 4,
            contended_locks: 2 * stats.contended_locks,
        };
        assert_eq!(stats + stats, twice);
    }

    #[test]
    fn batch_operations_match_per_key_operations() {
        let keys: Vec<Vec<usize>> = vec![vec![0], vec![1], vec![2, 3], vec![9, 11]];
        let entries: Vec<(Vec<usize>, SessionThermalResult)> =
            keys.iter().map(|k| (k.clone(), result_for(k))).collect();
        let store = SessionCacheHandle::new();
        // Duplicate keys inside one batch: first entry wins.
        let mut with_dup = entries.clone();
        with_dup.push((vec![0], result_for(&[1])));
        store.store_batch(with_dup);
        assert_eq!(store.stats().insertions, keys.len() as u64);
        for (key, expected) in &entries {
            assert_eq!(store.lookup(key).as_ref(), Some(expected), "key {key:?}");
        }
        assert_eq!(store.stats().lookups, keys.len() as u64);
        assert_eq!(store.stats().hits, keys.len() as u64);
    }

    #[test]
    fn the_characterisation_is_kept_once_and_counted_per_core() {
        let cores = 3;
        let first: Vec<SessionThermalResult> = (0..cores).map(|c| result_for(&[c])).collect();
        let store = SessionCacheHandle::new();
        // A read before any publication misses every core.
        assert_eq!(store.characterisation(cores), None);
        assert_eq!(store.stats().lookups, cores as u64);
        assert_eq!(store.stats().hits, 0);
        // The first publication is kept and counts one insertion per core.
        assert_eq!(store.characterise(first.clone()), first.as_slice());
        assert_eq!(store.stats().insertions, cores as u64);
        assert_eq!(store.len(), cores);
        // A later one is dropped: the store returns and keeps the first.
        let second: Vec<SessionThermalResult> = (0..cores).map(|c| result_for(&[c, 4])).collect();
        assert_eq!(store.characterise(second), first.as_slice());
        assert_eq!(store.stats().insertions, cores as u64);
        // A read through any clone of the handle hits every core.
        assert_eq!(
            store.clone().characterisation(cores),
            Some(first.as_slice())
        );
        let stats = store.stats();
        assert_eq!(
            (stats.lookups, stats.hits),
            (2 * cores as u64, cores as u64)
        );
        // Keyed entries count beside it.
        store.store(vec![0, 4, 7], result_for(&[0, 4, 7]));
        assert_eq!(store.len(), cores + 1);
        assert_eq!(store.stats().insertions, cores as u64 + 1);
    }

    #[test]
    fn handle_clones_share_one_store() {
        let handle = SessionCacheHandle::new();
        assert!(handle.is_empty());
        let alias = handle.clone();
        alias.store(vec![0, 4, 7], result_for(&[0, 4, 7]));
        assert_eq!(handle.len(), 1);
        assert_eq!(
            handle.lookup(&[0, 4, 7]),
            Some(result_for(&[0, 4, 7])),
            "lookup through either alias sees the shared entry"
        );
        assert_eq!(alias.stats(), handle.stats());
        // The benchmark's shard-count constructor builds the same store.
        assert!(SessionCacheHandle::sharded(8).is_empty());
    }

    #[test]
    fn contended_shard_locks_are_counted() {
        let store = SessionCacheHandle::new();
        let key = vec![3usize];
        assert_eq!(store.stats().contended_locks, 0);
        // Hold the lock on this thread; the worker's lookup then provably
        // finds it held. `lock` bumps the contention counter *before*
        // blocking, so waiting for the counter to tick while still holding
        // the guard is race-free — no sleeps, no timing assumptions.
        let guard = store.inner.entries.lock().unwrap();
        let worker_store = store.clone();
        let worker_key = key.clone();
        let worker = std::thread::spawn(move || worker_store.lookup(&worker_key));
        while store.stats().contended_locks == 0 {
            std::thread::yield_now();
        }
        drop(guard);
        assert_eq!(worker.join().unwrap(), None);
        assert!(
            store.stats().contended_locks >= 1,
            "contended lookup must be counted"
        );
        // An uncontended lookup afterwards adds nothing.
        let before = store.stats().contended_locks;
        let _ = store.lookup(&key);
        assert_eq!(store.stats().contended_locks, before);
    }

    #[test]
    fn poison_shard_hook_poisons_without_losing_entries() {
        // The public fault hook must behave exactly like the hand-rolled
        // poisoning below: entries survive, reads and writes recover.
        let store = SessionCacheHandle::new();
        store.store(vec![2], result_for(&[2]));
        store.poison();
        store.poison();
        assert!(store.inner.entries.is_poisoned());
        assert_eq!(store.lookup(&[2]), Some(result_for(&[2])));
        store.store(vec![3], result_for(&[3]));
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn poisoned_locks_recover_instead_of_cascading() {
        let store = SessionCacheHandle::new();
        store.store(vec![1], result_for(&[1]));
        let poisoner = store.clone();
        // Poison the mutex by panicking while it is held.
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.inner.entries.lock().unwrap();
            panic!("deliberate poison");
        })
        .join();
        assert_eq!(store.lookup(&[1]), Some(result_for(&[1])));
        store.store(vec![2], result_for(&[2]));
        assert_eq!(store.len(), 2);
        // Batch publication goes through the recovered lock too.
        store.store_batch(vec![(vec![0, 1, 2], result_for(&[0, 1, 2]))]);
        assert_eq!(store.len(), 3);
        assert_eq!(store.lookup(&[2]), Some(result_for(&[2])));
    }
}
