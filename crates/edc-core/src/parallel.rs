//! Scoped index-parallel map.
//!
//! [`par_map_indexed`] runs a closure over `0..n` on `std::thread::scope`
//! workers with simple self-scheduling — no channels, no locks — and
//! returns the results in index order.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Scoped parallel map over indices `0..n`, preserving index order in the
/// results: workers claim indices from a shared atomic counter, accumulate
/// `(index, value)` pairs privately, and the results are scattered into
/// place after the joins — no per-item lock traffic.
/// [`crate::shard::ShardedPipeline`] uses it to fan maintenance operations
/// (`flush_all`, `recover`, `scrub`, `verify`) across shards, each closure
/// locking its own shard.
///
/// `n == 0` returns an empty vector; `workers` is clamped to `[1, n]`.
pub fn par_map_indexed<T, F>(n: usize, workers: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let threads = workers.clamp(1, n);
    if threads == 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut done: Vec<(usize, T)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        done.push((i, f(i)));
                    }
                    done
                })
            })
            .collect();
        for h in handles {
            for (i, v) in h.join().expect("worker panicked") {
                results[i] = Some(v);
            }
        }
    });
    results.into_iter().map(|v| v.expect("every index claimed")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_indexed_preserves_order() {
        for workers in [1, 2, 5] {
            let out = par_map_indexed(23, workers, |i| i * i);
            assert_eq!(out, (0..23).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(par_map_indexed(0, 4, |i| i).is_empty());
    }
}
