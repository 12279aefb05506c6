//! Zero-dependency parallel experiment runner.
//!
//! Every regeneration target is a grid of (benchmark × mode × config)
//! tuples, and each run owns a private `ExecEnv`/`SimConfig` and shares
//! nothing — embarrassingly parallel work that the seed repo nevertheless
//! executed strictly sequentially. [`par_map`] fans a slice of run
//! descriptors across scoped `std::thread` workers pulling indices from a
//! shared atomic counter (work stealing from one global queue: a worker
//! that finishes a short run immediately steals the next index, so a slow
//! `paper`-scale Splay run cannot serialize the grid behind it).
//!
//! Determinism contract: workers send `(index, result)` pairs back over a
//! channel and the caller reassembles them into original index order, so
//! the output is **bit-identical** to a sequential map regardless of
//! worker count or scheduling — each run derives everything from its own
//! seeds. `crates/bench/tests/par_determinism.rs` pins this down.
//!
//! Worker count: [`jobs`] honours `UTPR_JOBS` and falls back to
//! `std::thread::available_parallelism()`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Worker count to use: `UTPR_JOBS` if set to a positive integer, else
/// [`std::thread::available_parallelism`], else 1.
pub fn jobs() -> usize {
    if let Ok(v) = std::env::var("UTPR_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
        eprintln!("UTPR_JOBS={v:?} is not a positive integer; using auto parallelism");
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Maps `f` over `items` on `jobs` worker threads, returning results in
/// input order.
///
/// `f` receives `(index, &item)`. With `jobs <= 1` (or one item) this
/// degrades to a plain sequential map on the calling thread — the baseline
/// the determinism test compares against.
///
/// # Panics
///
/// A panic inside `f` propagates to the caller once all workers have been
/// joined (via [`std::thread::scope`]).
pub fn par_map<T, R, F>(items: &[T], jobs: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let jobs = jobs.max(1).min(items.len().max(1));
    if jobs == 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel::<(usize, R)>();
        for _ in 0..jobs {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                if tx.send((i, f(i, &items[i]))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        for (i, r) in rx {
            slots[i] = Some(r);
        }
    });
    // Reached only if no worker panicked (scope re-raises worker panics),
    // in which case every index was delivered exactly once.
    slots.into_iter().map(|r| r.expect("worker delivered every index")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order_at_any_width() {
        let items: Vec<u64> = (0..97).collect();
        let seq = par_map(&items, 1, |i, x| (i as u64) * 1000 + x * x);
        for w in [2, 3, 8, 200] {
            assert_eq!(par_map(&items, w, |i, x| (i as u64) * 1000 + x * x), seq, "jobs={w}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(&empty, 8, |_, x| *x).is_empty());
        assert_eq!(par_map(&[7u32], 8, |_, x| x + 1), vec![8]);
    }

    #[test]
    fn workers_share_one_queue() {
        // With more items than workers every index is processed exactly once.
        let items: Vec<usize> = (0..50).collect();
        let out = par_map(&items, 4, |i, _| i);
        assert_eq!(out, items);
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..16).collect();
        let r = std::panic::catch_unwind(|| {
            par_map(&items, 4, |_, x| {
                assert!(*x != 9, "boom");
                *x
            })
        });
        assert!(r.is_err());
    }

    #[test]
    fn jobs_is_at_least_one() {
        assert!(jobs() >= 1);
    }
}
