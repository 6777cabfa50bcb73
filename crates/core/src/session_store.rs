//! The shared session-result store, [`ShardedSessionCache`], and the
//! [`SessionCacheHandle`] the rest of the stack holds.
//!
//! A [`crate::SessionCache`] is a plain per-run map. Sharing validated
//! session results *across* runs — sweep points on one engine, or the many
//! concurrent jobs of a `thermsched_service` batch — needs a thread-safe
//! store. [`ShardedSessionCache`] splits the key space over N
//! independently-locked shards so wide fan-outs do not serialise on one
//! lock; with one shard it is a single `Mutex` around one map.

use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, TryLockError};

use thermsched_thermal::SessionThermalResult;

use crate::SessionCache;

/// Point-in-time usage counters of a [`ShardedSessionCache`].
///
/// All counters are monotone over the store's lifetime (a
/// [`ShardedSessionCache::clear`] resets the *entries*, not the counters)
/// and are maintained with relaxed atomics: totals are exact, but a reader
/// racing concurrent writers may observe counters from slightly different
/// instants.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Keys probed through `lookup`/`lookup_batch`.
    pub lookups: u64,
    /// Probes that found a cached result (the warm hits).
    pub hits: u64,
    /// Results actually inserted (first-write-wins duplicates excluded).
    pub insertions: u64,
    /// Shard-lock acquisitions that found the lock already held; a
    /// well-sharded workload keeps it near zero even under heavy
    /// concurrency.
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

/// The store's atomic usage counters.
#[derive(Debug, Default)]
struct Counters {
    lookups: AtomicU64,
    hits: AtomicU64,
    insertions: AtomicU64,
    contended_locks: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> StoreStats {
        StoreStats {
            lookups: self.lookups.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            contended_locks: self.contended_locks.load(Ordering::Relaxed),
        }
    }
}

/// Locks a mutex, counting contention and recovering from poisoning: a
/// panicked previous holder can only have left whole, valid entries behind
/// (every mutation is a single map operation), so the store stays usable for
/// the surviving workers — the panic isolation the service layer relies on.
fn lock_counting<'m, T>(mutex: &'m Mutex<T>, counters: &Counters) -> MutexGuard<'m, T> {
    match mutex.try_lock() {
        Ok(guard) => guard,
        Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
        Err(TryLockError::WouldBlock) => {
            counters.contended_locks.fetch_add(1, Ordering::Relaxed);
            mutex.lock().unwrap_or_else(PoisonError::into_inner)
        }
    }
}

/// A thread-safe store of session thermal-validation results keyed by
/// sorted core sets (see [`SessionCache::key`]), split into N shards: the
/// key space is divided by a deterministic hash over the core set, and each
/// shard has its own lock, so concurrent workers touching different core
/// sets do not serialise on one another.
///
/// * **Determinism of content** — the simulators are deterministic, so the
///   result stored under a key is a pure function of the key (for a fixed
///   system and backend). First write wins; a racing duplicate insert is
///   dropped, and either race outcome stores the same bytes.
/// * **Batch operations** — [`Self::lookup_batch`] and [`Self::store_batch`]
///   group their keys by shard and take each shard lock once, so the
///   scheduler's phase-1 probe and end-of-run publication cost `O(shards)`
///   lock round trips regardless of how many keys move.
/// * **Panic tolerance** — a worker that panics while holding a shard lock
///   does not take the store down with it: locks recover from poisoning
///   (entries are only ever whole, valid results).
///
/// # Example
///
/// ```
/// use thermsched::ShardedSessionCache;
///
/// let store = ShardedSessionCache::new(8);
/// assert_eq!(store.shard_count(), 8);
/// assert_eq!(store.name(), "sharded(8)");
/// assert!(store.is_empty());
/// ```
#[derive(Debug)]
pub struct ShardedSessionCache {
    shards: Vec<Mutex<SessionCache>>,
    counters: Counters,
}

impl ShardedSessionCache {
    /// Creates an empty store with `shards` independently-locked shards (a
    /// requested count of zero is promoted to one).
    pub fn new(shards: usize) -> Self {
        let shards = shards.max(1);
        ShardedSessionCache {
            shards: (0..shards)
                .map(|_| Mutex::new(SessionCache::new()))
                .collect(),
            counters: Counters::default(),
        }
    }

    /// Deterministic shard index for a key: FNV-1a over the core ids. The
    /// hash must not vary between processes or runs (unlike
    /// `std::collections::hash_map::RandomState`), because shard assignment
    /// feeds the contention counters the benchmarks record.
    fn shard_for(&self, key: &[usize]) -> usize {
        // Word-at-a-time FNV-1a variant: one xor-multiply per core id. The
        // shard hash runs on every store operation, so it must cost less
        // than the map's own hashing, not more.
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for &core in key {
            hash = (hash ^ core as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Mix the high bits down: small sorted core sets differ mostly in
        // low words, and modulo alone would waste the multiply's avalanche.
        hash ^= hash >> 32;
        (hash % self.shards.len() as u64) as usize
    }

    /// Short human-readable name (`"sharded(8)"`).
    pub fn name(&self) -> String {
        format!("sharded({})", self.shards.len())
    }

    /// Number of independently-locked shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of cached results.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| lock_counting(shard, &self.counters).len())
            .sum()
    }

    /// Returns `true` if the store holds no results.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns a clone of the cached result for a key, if present. Cloning
    /// keeps the lock hold time short and leaves the shared entry available
    /// to other runs.
    pub fn lookup(&self, key: &[usize]) -> Option<SessionThermalResult> {
        self.counters.lookups.fetch_add(1, Ordering::Relaxed);
        let shard = &self.shards[self.shard_for(key)];
        let found = lock_counting(shard, &self.counters).get(key).cloned();
        if found.is_some() {
            self.counters.hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Looks up many keys, returning one slot per key in order. Counts one
    /// lookup (and at most one hit) per key.
    pub fn lookup_batch(&self, keys: &[Vec<usize>]) -> Vec<Option<SessionThermalResult>> {
        self.counters
            .lookups
            .fetch_add(keys.len() as u64, Ordering::Relaxed);
        // One pass computes each key's shard; the per-shard passes then take
        // each populated shard lock exactly once. (No per-shard index lists:
        // keeping batch operations allocation-lean matters — they run three
        // times per scheduling job.)
        let shard_of: Vec<usize> = keys.iter().map(|key| self.shard_for(key)).collect();
        let mut found: Vec<Option<SessionThermalResult>> = vec![None; keys.len()];
        let mut hits = 0u64;
        for (s, shard) in self.shards.iter().enumerate() {
            if !shard_of.contains(&s) {
                continue;
            }
            let cache = lock_counting(shard, &self.counters);
            for (i, key) in keys.iter().enumerate() {
                if shard_of[i] == s {
                    found[i] = cache.get(key).cloned();
                    hits += u64::from(found[i].is_some());
                }
            }
        }
        self.counters.hits.fetch_add(hits, Ordering::Relaxed);
        found
    }

    /// Stores a result unless the key is already cached (first write wins).
    pub fn store(&self, key: Vec<usize>, result: SessionThermalResult) {
        let shard = &self.shards[self.shard_for(&key)];
        let mut cache = lock_counting(shard, &self.counters);
        if !cache.contains(&key) {
            cache.insert(key, result);
            self.counters.insertions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Stores many results, first write wins per key — the scheduler
    /// publishes a whole run's fresh simulations through this at end-of-run
    /// instead of paying a lock round trip per candidate.
    pub fn store_batch(&self, entries: Vec<(Vec<usize>, SessionThermalResult)>) {
        // One pass computes each entry's shard; the per-shard passes then
        // take each populated shard lock exactly once and move the matching
        // entries out of their slots.
        let shard_of: Vec<usize> = entries.iter().map(|(key, _)| self.shard_for(key)).collect();
        let mut entries: Vec<Option<(Vec<usize>, SessionThermalResult)>> =
            entries.into_iter().map(Some).collect();
        let mut inserted = 0u64;
        for (s, shard) in self.shards.iter().enumerate() {
            if !shard_of.contains(&s) {
                continue;
            }
            let mut cache = lock_counting(shard, &self.counters);
            for (slot, _) in entries.iter_mut().zip(&shard_of).filter(|(_, &ks)| ks == s) {
                let (key, result) = slot.take().expect("each entry moves out once");
                if !cache.contains(&key) {
                    cache.insert(key, result);
                    inserted += 1;
                }
            }
        }
        self.counters
            .insertions
            .fetch_add(inserted, Ordering::Relaxed);
    }

    /// Drops every cached result (usage counters are preserved).
    pub fn clear(&self) {
        for shard in &self.shards {
            *lock_counting(shard, &self.counters) = SessionCache::new();
        }
    }

    /// Usage counters accumulated so far.
    pub fn stats(&self) -> StoreStats {
        self.counters.snapshot()
    }

    /// Fault-injection hook: poisons the lock guarding shard
    /// `shard % shard_count` by panicking a scoped throwaway thread while it
    /// holds the lock. Entries are untouched — the store keeps serving them
    /// through the recovered lock, and this hook exists so harnesses can
    /// prove that recovery without reaching into store internals.
    pub fn poison_shard(&self, shard: usize) {
        let mutex = &self.shards[shard % self.shards.len()];
        std::thread::scope(|scope| {
            let _ = scope
                .spawn(|| {
                    let _guard = mutex.lock().unwrap_or_else(PoisonError::into_inner);
                    panic!("injected store poison");
                })
                .join();
        });
    }
}

/// A cloneable, thread-safe handle to a shared [`ShardedSessionCache`],
/// through which it derefs.
///
/// A plain [`SessionCache`] lives for one `schedule()` call; the handle is
/// the long-lived variant the [`crate::Engine`] owns, so that every run
/// reusing the same backend starts from a warm cache. Cloning the handle
/// clones the *handle*, not the store: all clones see the same entries,
/// which is how the engine threads the cache through parallel sweeps and how
/// the service layer shares one store between its workers.
///
/// # Example
///
/// ```
/// use thermsched::SessionCacheHandle;
///
/// let cache = SessionCacheHandle::sharded(4);
/// let alias = cache.clone();
/// assert!(alias.is_empty());
/// assert_eq!(alias.shard_count(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct SessionCacheHandle {
    inner: Arc<ShardedSessionCache>,
}

impl Default for SessionCacheHandle {
    fn default() -> Self {
        Self::new()
    }
}

impl SessionCacheHandle {
    /// Creates a handle to a fresh, empty one-shard store.
    pub fn new() -> Self {
        Self::sharded(1)
    }

    /// Creates a handle to a fresh, empty store with the given shard count.
    pub fn sharded(shards: usize) -> Self {
        SessionCacheHandle {
            inner: Arc::new(ShardedSessionCache::new(shards)),
        }
    }
}

impl Deref for SessionCacheHandle {
    type Target = ShardedSessionCache;

    fn deref(&self) -> &ShardedSessionCache {
        &self.inner
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

    fn stores() -> Vec<ShardedSessionCache> {
        vec![ShardedSessionCache::new(1), ShardedSessionCache::new(7)]
    }

    #[test]
    fn every_store_round_trips_and_counts() {
        let a = result_for(&[0, 4, 7]);
        let b = result_for(&[1]);
        for store in stores() {
            assert!(store.is_empty(), "{}", store.name());
            assert_eq!(store.lookup(&[0, 4, 7]), None);
            store.store(vec![0, 4, 7], a.clone());
            store.store(vec![1], b.clone());
            // First write wins; a duplicate store is a no-op.
            store.store(vec![0, 4, 7], b.clone());
            assert_eq!(store.len(), 2, "{}", store.name());
            assert_eq!(store.lookup(&[0, 4, 7]), Some(a.clone()));
            assert_eq!(store.lookup(&[1]), Some(b.clone()));
            let stats = store.stats();
            assert_eq!(stats.lookups, 3);
            assert_eq!(stats.hits, 2);
            assert_eq!(stats.insertions, 2);
            assert!((stats.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
            store.clear();
            assert!(store.is_empty());
            // Counters survive a clear.
            assert_eq!(store.stats().insertions, 2);
        }
    }

    #[test]
    fn batch_operations_match_per_key_operations() {
        let keys: Vec<Vec<usize>> = vec![vec![0], vec![1], vec![2, 3], vec![9, 11]];
        let entries: Vec<(Vec<usize>, SessionThermalResult)> =
            keys.iter().map(|k| (k.clone(), result_for(k))).collect();
        for store in stores() {
            let empty = store.lookup_batch(&keys);
            assert!(empty.iter().all(Option::is_none));
            // Duplicate keys inside one batch: first entry wins.
            let mut with_dup = entries.clone();
            with_dup.push((vec![0], result_for(&[1])));
            store.store_batch(with_dup);
            assert_eq!(
                store.stats().insertions,
                keys.len() as u64,
                "{}",
                store.name()
            );
            let found = store.lookup_batch(&keys);
            for ((slot, key), (_, expected)) in found.iter().zip(&keys).zip(&entries) {
                assert_eq!(slot.as_ref(), Some(expected), "key {key:?}");
            }
            assert_eq!(store.lookup(&[0]), Some(entries[0].1.clone()));
        }
    }

    #[test]
    fn sharding_is_deterministic_and_covers_all_shards() {
        let store = ShardedSessionCache::new(8);
        let mut used = [false; 8];
        for core in 0..64 {
            let shard = store.shard_for(&[core]);
            assert_eq!(shard, store.shard_for(&[core]), "stable per key");
            used[shard] = true;
        }
        assert!(
            used.iter().filter(|&&u| u).count() >= 4,
            "64 singleton keys should spread over at least half the shards"
        );
        // Zero shard requests are promoted to one.
        assert_eq!(ShardedSessionCache::new(0).shard_count(), 1);
    }

    #[test]
    fn handle_clones_share_one_store() {
        for handle in [SessionCacheHandle::new(), SessionCacheHandle::sharded(4)] {
            assert!(handle.is_empty());
            let alias = handle.clone();
            alias.store(vec![0, 4, 7], result_for(&[0, 4, 7]));
            assert_eq!(handle.len(), 1);
            assert_eq!(
                handle.lookup(&[0, 4, 7]),
                Some(result_for(&[0, 4, 7])),
                "lookup through either alias sees the shared entry"
            );
            handle.clear();
            assert!(alias.is_empty());
            assert_eq!(alias.lookup(&[0, 4, 7]), None);
        }
    }

    #[test]
    fn handle_reports_its_backing_store() {
        assert_eq!(SessionCacheHandle::new().name(), "sharded(1)");
        assert_eq!(SessionCacheHandle::new().shard_count(), 1);
        let sharded = SessionCacheHandle::sharded(6);
        assert_eq!(sharded.name(), "sharded(6)");
        assert_eq!(sharded.shard_count(), 6);
    }

    #[test]
    fn poisoned_shard_recovers_and_leaves_other_shards_untouched() {
        let store = Arc::new(ShardedSessionCache::new(4));
        let key = vec![0usize];
        let shard = store.shard_for(&key);
        store.store(key.clone(), result_for(&[0]));
        // A second key landing in the *same* shard, to exercise writes
        // through the recovered lock. Keys must stay valid core sets of the
        // 15-core fixture system.
        let sibling = (1usize..15)
            .map(|core| vec![core])
            .chain((1usize..15).map(|core| vec![0, core]))
            .find(|k| store.shard_for(k) == shard)
            .expect("some small core set shares the shard");
        // Poison exactly that shard by panicking while its lock is held.
        let poisoner = Arc::clone(&store);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.shards[shard].lock().unwrap();
            panic!("deliberate poison");
        })
        .join();
        // Reads and writes through the poisoned shard recover.
        assert_eq!(store.lookup(&key), Some(result_for(&[0])));
        store.store(sibling.clone(), result_for(&sibling));
        assert_eq!(store.lookup(&sibling), Some(result_for(&sibling)));
        assert_eq!(store.len(), 2);
        // Batch operations traverse the poisoned shard too.
        let keys = vec![key.clone(), sibling.clone()];
        let found = store.lookup_batch(&keys);
        assert!(found.iter().all(Option::is_some));
        store.store_batch(vec![(vec![0, 1, 2], result_for(&[0, 1, 2]))]);
        assert_eq!(store.len(), 3);
        // And a clear through the recovered lock leaves a usable store.
        store.clear();
        assert!(store.is_empty());
        store.store(key.clone(), result_for(&[0]));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn contended_shard_locks_are_counted() {
        let store = Arc::new(ShardedSessionCache::new(2));
        let key = vec![3usize];
        let shard = store.shard_for(&key);
        assert_eq!(store.stats().contended_locks, 0);
        // Hold the shard lock on this thread; the worker's lookup then
        // provably finds it held. `lock_counting` bumps the contention
        // counter *before* blocking on the lock, so waiting for the counter
        // to tick while still holding the guard is race-free — no sleeps,
        // no timing assumptions.
        let guard = store.shards[shard].lock().unwrap();
        let worker_store = Arc::clone(&store);
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
        // poisoning above: entries survive, reads and writes recover.
        for store in stores() {
            store.store(vec![2], result_for(&[2]));
            for shard in 0..store.shard_count() {
                store.poison_shard(shard);
            }
            // Out-of-range shard indices wrap instead of panicking.
            store.poison_shard(store.shard_count() + 5);
            assert_eq!(
                store.lookup(&[2]),
                Some(result_for(&[2])),
                "{}",
                store.name()
            );
            store.store(vec![3], result_for(&[3]));
            assert_eq!(store.len(), 2);
        }
        // And through the handle.
        let handle = SessionCacheHandle::sharded(3);
        handle.store(vec![5], result_for(&[5]));
        handle.poison_shard(1);
        assert_eq!(handle.lookup(&[5]), Some(result_for(&[5])));
    }

    #[test]
    fn poisoned_locks_recover_instead_of_cascading() {
        // The one-shard store: every key behind a single lock.
        let store = Arc::new(ShardedSessionCache::new(1));
        store.store(vec![1], result_for(&[1]));
        let poisoner = Arc::clone(&store);
        // Poison the mutex by panicking while it is held.
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.shards[0].lock().unwrap();
            panic!("deliberate poison");
        })
        .join();
        assert_eq!(store.lookup(&[1]), Some(result_for(&[1])));
        store.store(vec![2], result_for(&[2]));
        assert_eq!(store.len(), 2);
    }
}
