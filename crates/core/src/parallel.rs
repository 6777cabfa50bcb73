//! Ordered parallel map over independent work items with scoped threads.

use std::cell::Cell;

thread_local! {
    /// Set inside worker threads so nested calls run sequentially instead of
    /// oversubscribing the machine: a `table1_sweep` worker calls
    /// `ThermalAwareScheduler::schedule`, whose phase 1 would otherwise fan
    /// out again — up to P² runnable threads on a P-core machine.
    static IN_PARALLEL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as an outer-level worker for the duration of the
/// returned guard: every `parallel_map_ordered` call made on this thread runs
/// sequentially instead of fanning out again. External worker pools (the
/// `thermsched_service` runner) hold one per worker thread so that W workers
/// × P phase-1 threads cannot oversubscribe a P-core machine.
pub struct NestedParallelismGuard {
    previous: bool,
}

impl NestedParallelismGuard {
    /// Flags the current thread; the flag reverts when the guard drops.
    pub fn enter() -> Self {
        let previous = IN_PARALLEL_WORKER.with(Cell::get);
        IN_PARALLEL_WORKER.with(|flag| flag.set(true));
        NestedParallelismGuard { previous }
    }
}

impl Drop for NestedParallelismGuard {
    fn drop(&mut self) {
        let previous = self.previous;
        IN_PARALLEL_WORKER.with(|flag| flag.set(previous));
    }
}

impl std::fmt::Debug for NestedParallelismGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NestedParallelismGuard")
            .field("previous", &self.previous)
            .finish()
    }
}

/// Applies `f` to every item, fanning the work out across the machine with
/// scoped threads, and returns the results in item order regardless of which
/// thread computed them. Falls back to a plain sequential loop when only one
/// thread is useful or when already running inside another
/// `parallel_map_ordered` worker.
///
/// The nesting flag and the item count are checked before the machine is
/// probed: on Linux `available_parallelism` reads several procfs and cgroup
/// files, which would cost a service worker more than a small job's own
/// phase 1.
pub(crate) fn parallel_map_ordered<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Copy + Sync,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let threads = if items.len() <= 1 || IN_PARALLEL_WORKER.with(Cell::get) {
        1
    } else {
        std::thread::available_parallelism()
            .map_or(1, |t| t.get())
            .min(items.len())
    };
    if threads == 1 {
        return items.iter().map(|&item| f(item)).collect();
    }
    let mut slots: Vec<Option<U>> = items.iter().map(|_| None).collect();
    let chunk_size = items.len().div_ceil(threads);
    let f = &f;
    std::thread::scope(|scope| {
        for (slot_chunk, item_chunk) in slots.chunks_mut(chunk_size).zip(items.chunks(chunk_size)) {
            scope.spawn(move || {
                IN_PARALLEL_WORKER.with(|flag| flag.set(true));
                for (slot, &item) in slot_chunk.iter_mut().zip(item_chunk) {
                    *slot = Some(f(item));
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every item is processed by exactly one thread"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_item_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = parallel_map_ordered(&items, |i| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn handles_empty_and_singleton_inputs() {
        assert_eq!(parallel_map_ordered::<usize, usize, _>(&[], |i| i), vec![]);
        assert_eq!(parallel_map_ordered(&[7], |i| i + 1), vec![8]);
    }

    #[test]
    fn guard_forces_sequential_execution_and_restores_on_drop() {
        assert!(!IN_PARALLEL_WORKER.with(Cell::get));
        {
            let _guard = NestedParallelismGuard::enter();
            assert!(IN_PARALLEL_WORKER.with(Cell::get));
            // Nested guards restore the outer guard's state, not `false`.
            {
                let _inner = NestedParallelismGuard::enter();
                assert!(IN_PARALLEL_WORKER.with(Cell::get));
            }
            assert!(IN_PARALLEL_WORKER.with(Cell::get));
            let out = parallel_map_ordered(&[1usize, 2, 3], |i| i * 2);
            assert_eq!(out, vec![2, 4, 6]);
        }
        assert!(!IN_PARALLEL_WORKER.with(Cell::get));
    }

    #[test]
    fn nested_calls_run_sequentially_and_stay_ordered() {
        let items: Vec<usize> = (0..8).collect();
        let out = parallel_map_ordered(&items, |i| {
            let inner: Vec<usize> = (0..4).collect();
            parallel_map_ordered(&inner, move |j| i * 10 + j)
        });
        for (i, row) in out.iter().enumerate() {
            assert_eq!(row, &vec![i * 10, i * 10 + 1, i * 10 + 2, i * 10 + 3]);
        }
    }
}
