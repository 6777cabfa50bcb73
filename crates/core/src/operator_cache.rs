//! Cross-scenario operator cache: share fully constructed thermal backends
//! (and therefore their factorisations) between runs over the same grid
//! shape.
//!
//! A thermal backend's expensive pieces — the RC model's LU factorisation
//! and precomputed step operator, the grid model's banded Cholesky of
//! `C/Δt + G` — depend only on the floorplan geometry, the package and the
//! solver configuration, *not* on the power assignment being scheduled. A
//! scenario corpus generated by `thermsched_service` cycles a handful of
//! grid shapes over many seeds, so most scenarios share their geometry with
//! an earlier one and would rebuild an identical operator from scratch.
//! [`OperatorCacheHandle`] closes that gap with the same pattern as
//! [`crate::SessionCacheHandle`]: a cloneable handle to a shared map, here
//! from [`OperatorKey`] (backend kind + the exact construction inputs) to
//! `Arc<dyn ThermalBackend>`, with hit/miss counters and poison recovery.
//!
//! Sharing an `Arc` of the backend (rather than cloning factorisations out)
//! also keeps results byte-identical at any worker count: every job over a
//! shape evaluates sessions through literally the same operator bits.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use thermsched_thermal::ThermalBackend;

/// Identity of a cached operator: a backend-kind label plus every input
/// the backend construction reads, as 64-bit words (floating-point inputs
/// as their exact bit patterns). Two keys compare equal exactly when their
/// labels and words do, which asserts "an identical backend would be
/// built".
///
/// # Example
///
/// ```
/// use thermsched::OperatorKey;
///
/// let a = OperatorKey::new("rc-compact", [0.004f64.to_bits(), 0.008f64.to_bits()]);
/// let b = OperatorKey::new("rc-compact", [0.004f64.to_bits(), 0.008f64.to_bits()]);
/// assert_eq!(a, b);
/// assert_ne!(a, OperatorKey::new("rc-compact", [0.004f64.to_bits()]));
/// assert_eq!(OperatorKey::new("rc", [10, 255]).to_string(), "rc:a:ff");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OperatorKey {
    backend: String,
    words: Vec<u64>,
}

impl OperatorKey {
    /// Creates a key for a backend kind from the words its construction
    /// depends on.
    pub fn new(backend: impl Into<String>, words: impl IntoIterator<Item = u64>) -> Self {
        OperatorKey {
            backend: backend.into(),
            words: words.into_iter().collect(),
        }
    }
}

/// The label, then every word in hex, `:`-separated.
impl fmt::Display for OperatorKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.backend)?;
        for word in &self.words {
            write!(f, ":{word:x}")?;
        }
        Ok(())
    }
}

/// Point-in-time usage counters of an operator cache. Monotone over the
/// cache's lifetime ([`OperatorCacheHandle::clear`] resets entries, not
/// counters); maintained with relaxed atomics like [`crate::StoreStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OperatorCacheStats {
    /// Requests served by an already-built backend.
    pub hits: u64,
    /// Requests that had to build (the number of factorisations actually
    /// paid; equals the number of distinct keys requested so far, barring
    /// racing duplicate builds whose results were dropped).
    pub misses: u64,
}

impl OperatorCacheStats {
    /// Fraction of requests served from the cache, in `[0, 1]`; `0.0`
    /// before the first request.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Default)]
struct CacheInner {
    entries: Mutex<HashMap<OperatorKey, Arc<dyn ThermalBackend>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Recovers from poisoning: a panicked holder can only have left whole,
/// valid entries behind (every mutation is a single map operation), so the
/// cache stays usable for surviving workers.
fn lock_entries(
    inner: &CacheInner,
) -> MutexGuard<'_, HashMap<OperatorKey, Arc<dyn ThermalBackend>>> {
    inner.entries.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A cloneable, thread-safe handle to a shared operator cache — the
/// [`crate::SessionCacheHandle`] pattern applied to whole backends. Cloning
/// the handle clones the *handle*: all clones see the same entries, which
/// is how a service run shares one cache across its worker pool.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
/// use thermsched::{OperatorCacheHandle, OperatorKey};
/// use thermsched_thermal::{RcThermalSimulator, ThermalBackend};
/// use thermsched_floorplan::library;
///
/// # fn main() -> Result<(), thermsched::ScheduleError> {
/// let cache = OperatorCacheHandle::new();
/// let key = OperatorKey::new("rc-compact", [21364]);
/// let build = || -> Result<Arc<dyn ThermalBackend>, thermsched::ScheduleError> {
///     Ok(Arc::new(RcThermalSimulator::from_floorplan(&library::alpha21364())?))
/// };
/// let first = cache.get_or_try_build(key.clone(), build)?;
/// let second = cache.get_or_try_build(key, build)?;
/// assert!(Arc::ptr_eq(&first, &second), "the second request is a hit");
/// assert_eq!(cache.stats().hits, 1);
/// assert_eq!(cache.stats().misses, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Default)]
pub struct OperatorCacheHandle {
    inner: Arc<CacheInner>,
}

impl fmt::Debug for OperatorCacheHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("OperatorCacheHandle")
            .field("entries", &self.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl OperatorCacheHandle {
    /// Creates a handle to a fresh, empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the cached backend for `key`, building (and caching) it on a
    /// miss. The build runs outside the cache lock so unrelated keys do not
    /// serialise on one another; if two workers race the same key, the
    /// first insertion wins and the duplicate build is dropped — both
    /// instances are bit-identical by construction, and every caller
    /// receives the `Arc` that actually lives in the map.
    ///
    /// # Errors
    ///
    /// Propagates the builder's error without caching anything.
    pub fn get_or_try_build<E>(
        &self,
        key: OperatorKey,
        build: impl FnOnce() -> Result<Arc<dyn ThermalBackend>, E>,
    ) -> Result<Arc<dyn ThermalBackend>, E> {
        if let Some(found) = lock_entries(&self.inner).get(&key) {
            self.inner.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(found));
        }
        let built = build()?;
        self.inner.misses.fetch_add(1, Ordering::Relaxed);
        let mut entries = lock_entries(&self.inner);
        let stored = entries.entry(key).or_insert(built);
        Ok(Arc::clone(stored))
    }

    /// Returns the cached backend for `key` without building.
    pub fn get(&self, key: &OperatorKey) -> Option<Arc<dyn ThermalBackend>> {
        lock_entries(&self.inner).get(key).map(Arc::clone)
    }

    /// Number of cached backends.
    pub fn len(&self) -> usize {
        lock_entries(&self.inner).len()
    }

    /// Returns `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached backend (counters are preserved).
    pub fn clear(&self) {
        lock_entries(&self.inner).clear();
    }

    /// Usage counters accumulated so far.
    pub fn stats(&self) -> OperatorCacheStats {
        OperatorCacheStats {
            hits: self.inner.hits.load(Ordering::Relaxed),
            misses: self.inner.misses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;
    use thermsched_floorplan::library;
    use thermsched_thermal::RcThermalSimulator;

    fn rc_backend() -> Arc<dyn ThermalBackend> {
        Arc::new(RcThermalSimulator::from_floorplan(&library::alpha21364()).unwrap())
    }

    fn key(shape: (usize, usize)) -> OperatorKey {
        OperatorKey::new("rc-compact", [shape.0 as u64, shape.1 as u64])
    }

    #[test]
    fn keys_discriminate_on_every_field() {
        let base = OperatorKey::new("grid-transient", [4, 3, 1.5f64.to_bits()]);
        assert_eq!(base, base.clone());
        assert_ne!(
            base,
            OperatorKey::new("grid-steady", [4, 3, 1.5f64.to_bits()])
        );
        assert_ne!(
            base,
            OperatorKey::new("grid-transient", [3, 4, 1.5f64.to_bits()])
        );
        assert_ne!(base, OperatorKey::new("grid-transient", [4, 3]));
        // Exact bits: values equal as numbers but not as bits stay apart.
        assert_ne!(
            OperatorKey::new("rc", [0.0f64.to_bits()]),
            OperatorKey::new("rc", [(-0.0f64).to_bits()])
        );
        assert_eq!(base.to_string(), "grid-transient:4:3:3ff8000000000000");
        assert_eq!(OperatorKey::new("rc", []).to_string(), "rc");
    }

    #[test]
    fn repeated_requests_share_one_instance_and_count() {
        let cache = OperatorCacheHandle::new();
        assert!(cache.is_empty());
        let first = cache
            .get_or_try_build::<Infallible>(key((3, 3)), || Ok(rc_backend()))
            .unwrap();
        let second = cache
            .get_or_try_build::<Infallible>(key((3, 3)), || panic!("a hit must not rebuild"))
            .unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        let other = cache
            .get_or_try_build::<Infallible>(key((4, 4)), || Ok(rc_backend()))
            .unwrap();
        assert!(!Arc::ptr_eq(&first, &other));
        assert_eq!(cache.len(), 2);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
        assert!((stats.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn clones_share_the_cache_and_clear_preserves_counters() {
        let cache = OperatorCacheHandle::new();
        let alias = cache.clone();
        alias
            .get_or_try_build::<Infallible>(key((3, 3)), || Ok(rc_backend()))
            .unwrap();
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&key((3, 3))).is_some());
        assert!(cache.get(&key((9, 9))).is_none());
        cache.clear();
        assert!(alias.is_empty());
        assert_eq!(alias.stats().misses, 1, "counters survive a clear");
        assert_eq!(OperatorCacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn build_errors_propagate_and_cache_nothing() {
        let cache = OperatorCacheHandle::new();
        match cache.get_or_try_build(key((3, 3)), || Err("backend exploded")) {
            Err(err) => assert_eq!(err, "backend exploded"),
            Ok(_) => panic!("build error must propagate"),
        }
        assert!(cache.is_empty());
        // A failed build still counts nothing as a hit; retrying works.
        cache
            .get_or_try_build::<Infallible>(key((3, 3)), || Ok(rc_backend()))
            .unwrap();
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn poisoned_lock_recovers() {
        let cache = OperatorCacheHandle::new();
        cache
            .get_or_try_build::<Infallible>(key((3, 3)), || Ok(rc_backend()))
            .unwrap();
        let poisoner = cache.clone();
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.inner.entries.lock().unwrap();
            panic!("deliberate poison");
        })
        .join();
        assert_eq!(cache.len(), 1, "entries survive the poisoned holder");
        let again = cache
            .get_or_try_build::<Infallible>(key((3, 3)), || Ok(rc_backend()))
            .unwrap();
        assert_eq!(again.backend_name(), "rc-compact");
        assert_eq!(cache.stats().hits, 1);
    }
}
