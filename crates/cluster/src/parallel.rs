//! Parallel per-trace execution for the 35-trace packing studies.
//!
//! Uses `std::thread::scope` workers that claim items from one shared
//! iterator behind a mutex; results return in trace order regardless of
//! which worker ran them.

use std::sync::{Mutex, PoisonError};

/// The default worker count for parallel sweeps: the machine's
/// available parallelism, or 1 when that cannot be determined.
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Applies `f` to every trace-like item on a pool of worker threads and
/// returns results in input order: [`map_parallel_mut`] over the items'
/// references.
///
/// `workers` is clamped to `[1, items.len()]`; pass
/// `std::thread::available_parallelism()` for a full fan-out.
///
/// # Panics
///
/// Propagates a panic from `f`: when a worker thread panics, the
/// join re-raises that panic on the calling thread.
pub fn map_parallel<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let mut refs: Vec<&T> = items.iter().collect();
    map_parallel_mut(&mut refs, workers, |i, item| f(i, *item))
}

/// Applies `f` to every item with **exclusive** access, on a pool of
/// worker threads, returning results in input order. The sharded replay
/// driver runs `&mut` shard tasks through this. A single worker runs
/// inline and work is claimed from a shared queue, so the result vector
/// is identical for any worker count whenever `f` is deterministic per
/// item.
///
/// # Panics
///
/// Propagates a panic from `f`: when a worker thread panics, the
/// join re-raises that panic on the calling thread.
pub fn map_parallel_mut<T, R, F>(items: &mut [T], workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let workers = workers.clamp(1, items.len());
    if workers == 1 {
        // Run inline: a single worker gains nothing from a scoped
        // thread, and skipping the spawn keeps serial sweeps (and
        // 1-CPU machines) free of threading overhead.
        return items.iter_mut().enumerate().map(|(i, item)| f(i, item)).collect();
    }
    // Workers claim `(index, &mut item)` pairs from one shared iterator,
    // so each item goes to exactly one worker, and keep their results
    // with the index they came from.
    let queue = Mutex::new(items.iter_mut().enumerate());
    // The guard drops before `claim` returns, so `f` never runs under
    // the lock: a guard held across the loop body would run the workers
    // one at a time.
    let claim = || queue.lock().unwrap_or_else(PoisonError::into_inner).next();
    let per_worker: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    while let Some((i, item)) = claim() {
                        done.push((i, f(i, item)));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("worker threads do not panic"))
            .collect()
    });
    // Each index was claimed exactly once: sorting restores input order.
    let mut results: Vec<(usize, R)> = per_worker.into_iter().flatten().collect();
    results.sort_unstable_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<u32> = (0..50).collect();
        let out = map_parallel(&items, 8, |_, &x| x * 2);
        assert_eq!(out, (0..50).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn index_passed_through() {
        let items = vec!["a", "b", "c"];
        let out = map_parallel(&items, 2, |i, s| format!("{i}:{s}"));
        assert_eq!(out, vec!["0:a", "1:b", "2:c"]);
    }

    #[test]
    fn empty_input() {
        let out: Vec<u32> = map_parallel(&Vec::<u32>::new(), 4, |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_worker_equivalent() {
        let items: Vec<u32> = (0..10).collect();
        let a = map_parallel(&items, 1, |_, &x| x + 1);
        let b = map_parallel(&items, 16, |_, &x| x + 1);
        assert_eq!(a, b);
    }

    #[test]
    fn more_workers_than_items() {
        // The worker count clamps to the item count; no worker may
        // double-process or skip an index.
        let items = vec![10u32, 20, 30];
        let out = map_parallel(&items, 64, |i, &x| (i, x));
        assert_eq!(out, vec![(0, 10), (1, 20), (2, 30)]);
    }

    #[test]
    #[should_panic(expected = "worker threads do not panic")]
    fn panicking_closure_propagates() {
        let items: Vec<u32> = (0..8).collect();
        let _ = map_parallel(&items, 4, |_, &x| {
            if x == 5 {
                panic!("closure failed on purpose");
            }
            x
        });
    }

    #[test]
    fn order_preserved_under_contention() {
        // Items deliberately take inverted amounts of work so late
        // indices finish before early ones; results must still come
        // back in input order.
        let items: Vec<u64> = (0..64).collect();
        let out = map_parallel(&items, 16, |_, &x| {
            let spins = (64 - x) * 2_000;
            let mut acc = x;
            for i in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            (x, acc)
        });
        let ids: Vec<u64> = out.iter().map(|(x, _)| *x).collect();
        assert_eq!(ids, items);
        // And the computed values match a serial run exactly.
        let serial = map_parallel(&items, 1, |_, &x| {
            let spins = (64 - x) * 2_000;
            let mut acc = x;
            for i in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            (x, acc)
        });
        assert_eq!(out, serial);
    }

    #[test]
    fn mut_variant_mutates_and_preserves_order() {
        let mut items: Vec<u64> = (0..40).collect();
        let out = map_parallel_mut(&mut items, 8, |i, x| {
            *x += 100;
            (i, *x)
        });
        assert_eq!(out, (0..40).map(|i| (i as usize, i as u64 + 100)).collect::<Vec<_>>());
        assert_eq!(items, (100..140).collect::<Vec<u64>>());
    }

    #[test]
    fn mut_variant_worker_count_invariant() {
        let run = |workers: usize| {
            let mut items: Vec<u64> = (0..33).collect();
            map_parallel_mut(&mut items, workers, |_, x| {
                *x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                *x
            })
        };
        let serial = run(1);
        for workers in [2, 4, 16, 64] {
            assert_eq!(run(workers), serial);
        }
    }

    #[test]
    fn mut_variant_empty_input() {
        let out: Vec<u64> = map_parallel_mut(&mut Vec::<u64>::new(), 4, |_, &mut x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn workers_run_items_concurrently() {
        // Each call waits (up to 10 s) for the other to arrive. A pool
        // that ran `f` one item at a time, say under the queue lock,
        // would see only its own arrival.
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::time::{Duration, Instant};
        let arrived = AtomicUsize::new(0);
        let seen = map_parallel(&[0u8, 1], 2, |_, _| {
            arrived.fetch_add(1, Ordering::SeqCst);
            let deadline = Instant::now() + Duration::from_secs(10);
            while arrived.load(Ordering::SeqCst) < 2 && Instant::now() < deadline {
                std::thread::yield_now();
            }
            arrived.load(Ordering::SeqCst)
        });
        assert_eq!(seen, vec![2, 2], "both items must be in flight at once");
    }

    #[test]
    fn default_workers_positive() {
        assert!(default_workers() >= 1);
    }

    #[test]
    fn heavy_work_distributes() {
        // Smoke test that parallel execution computes the same reduction.
        let items: Vec<u64> = (0..32).collect();
        let out = map_parallel(&items, 8, |_, &x| (0..10_000u64).map(|i| i ^ x).sum::<u64>());
        let seq: Vec<u64> =
            items.iter().map(|&x| (0..10_000u64).map(|i| i ^ x).sum::<u64>()).collect();
        assert_eq!(out, seq);
    }
}
