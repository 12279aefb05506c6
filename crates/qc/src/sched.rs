//! Seeded interleaving schedules for concurrency harnesses.
//!
//! Real thread timing is non-deterministic, which would make concurrent
//! crash sweeps unreplayable. The explorer sidesteps that: each logical
//! thread contributes a *script* of operations, and a [`schedule`] decides
//! the global interleaving up front — round-robin for the canonical fair
//! ordering, or seeded-random to explore skewed ones. A driver then
//! executes the scripts *serially* in schedule order, so any failure
//! replays exactly from the `(seed, policy, counts)` triple — the same
//! `UTPR_QC_SEED` contract as the property runner ([`crate::runner`]).

//!
//! For *real*-thread harnesses whose interleavings happen mid-operation
//! (the lock-free indexes), [`Turnstile`] serializes N OS threads at
//! explicit yield points and hands the baton around with the same seeded
//! determinism: the grant sequence depends only on `(seed, program)`,
//! never on host timing.

use crate::rng::Rng;
use std::sync::{Condvar, Mutex};

/// How the per-thread scripts are interleaved into one global order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    /// Cyclic fair order: thread 0, 1, …, N-1, 0, 1, … (skipping threads
    /// whose script is exhausted).
    RoundRobin,
    /// Seeded-random pick among non-exhausted threads; distinct seeds
    /// explore distinct interleavings, the same seed replays bit-for-bit.
    Seeded(u64),
}

/// Builds an interleaving: a vector of thread ids in which thread `t`
/// appears exactly `counts[t]` times, in script order (a schedule permutes
/// *across* threads, never within one thread's script).
///
/// # Panics
///
/// Panics when `counts` is empty.
///
/// # Examples
///
/// ```
/// use utpr_qc::sched::{schedule, Policy};
///
/// let order = schedule(Policy::RoundRobin, &[2, 2]);
/// assert_eq!(order, vec![0, 1, 0, 1]);
///
/// let a = schedule(Policy::Seeded(7), &[3, 3, 3]);
/// let b = schedule(Policy::Seeded(7), &[3, 3, 3]);
/// assert_eq!(a, b, "same seed, same interleaving");
/// ```
#[must_use]
pub fn schedule(policy: Policy, counts: &[u64]) -> Vec<u32> {
    assert!(!counts.is_empty(), "schedule over zero threads");
    let total: u64 = counts.iter().sum();
    let mut remaining = counts.to_vec();
    let mut order = Vec::with_capacity(total as usize);
    match policy {
        Policy::RoundRobin => {
            let mut t = 0usize;
            while order.len() < total as usize {
                if remaining[t] > 0 {
                    remaining[t] -= 1;
                    order.push(t as u32);
                }
                t = (t + 1) % counts.len();
            }
        }
        Policy::Seeded(seed) => {
            let mut rng = Rng::new(seed);
            let mut left = total;
            while left > 0 {
                // Weighted pick by remaining script length, so long scripts
                // are not starved to the tail of the schedule.
                let mut pick = rng.below(left);
                for (t, r) in remaining.iter_mut().enumerate() {
                    if pick < *r {
                        *r -= 1;
                        left -= 1;
                        order.push(t as u32);
                        break;
                    }
                    pick -= *r;
                }
            }
        }
    }
    order
}

/// Steps through a schedule, tracking each thread's position in its own
/// script: yields `(thread, index_within_script)` pairs.
///
/// # Examples
///
/// ```
/// use utpr_qc::sched::{schedule, steps, Policy};
///
/// let order = schedule(Policy::RoundRobin, &[2, 1]);
/// let s: Vec<(u32, u64)> = steps(&order).collect();
/// assert_eq!(s, vec![(0, 0), (1, 0), (0, 1)]);
/// ```
pub fn steps(order: &[u32]) -> impl Iterator<Item = (u32, u64)> + '_ {
    let threads = order.iter().copied().max().map_or(0, |m| m as usize + 1);
    let mut cursor = vec![0u64; threads];
    order.iter().map(move |&t| {
        let i = cursor[t as usize];
        cursor[t as usize] += 1;
        (t, i)
    })
}

/// The machine crashed (another thread tripped a fault gate): unwind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Crashed;

struct TsState {
    rng: Rng,
    current: usize,
    active: Vec<bool>,
    crashed: bool,
    grants: u64,
    /// Whether the current grant has already been taken by a returning
    /// `yield_point`. Only a consumed grant is re-drawn when its holder
    /// yields: a thread granted the baton *before it arrives* must take
    /// that grant exactly as if it had been waiting, or the schedule
    /// would depend on host timing.
    consumed: bool,
}

impl TsState {
    /// Hands the baton to a seeded-random active thread (possibly the
    /// current one again).
    fn pass(&mut self) {
        let n = self.active.iter().filter(|a| **a).count() as u64;
        if n == 0 {
            return;
        }
        let mut pick = self.rng.below(n);
        for (t, a) in self.active.iter().enumerate() {
            if *a {
                if pick == 0 {
                    self.current = t;
                    self.grants += 1;
                    self.consumed = false;
                    return;
                }
                pick -= 1;
            }
        }
    }
}

/// Deterministic turnstile for N real threads: exactly one thread runs
/// between two yield points, and the grant order is drawn from a seeded
/// RNG over the still-active threads.
///
/// Protocol: every shared-memory access in the workload is preceded by
/// [`Turnstile::yield_point`]; a thread leaving the workload (normally
/// or by unwinding) calls [`Turnstile::finish`]; a thread observing a
/// machine-wide fault calls [`Turnstile::crash`], which makes every
/// other thread's next yield return `Err(Crashed)`.
///
/// Because the baton is passed *inside* the yield — before the caller
/// blocks — the schedule is a pure function of the seed and the
/// workload's own control flow: replaying the same seed replays the
/// same interleaving, CAS winners included, on any host.
pub struct Turnstile {
    state: Mutex<TsState>,
    cv: Condvar,
}

impl Turnstile {
    /// A turnstile over `threads` participants, all initially active.
    #[must_use]
    pub fn new(threads: usize, seed: u64) -> Turnstile {
        assert!(threads > 0, "turnstile over zero threads");
        let mut st = TsState {
            rng: Rng::new(seed ^ 0x7572_6e73_7469_6c65), // "urnstile"
            current: 0,
            active: vec![true; threads],
            crashed: false,
            grants: 0,
            consumed: false,
        };
        st.pass();
        // The initial draw only picks who re-draws first: its holder's
        // first yield is an interleaving point like any other.
        st.consumed = true;
        Turnstile { state: Mutex::new(st), cv: Condvar::new() }
    }

    /// Blocks until thread `t` is granted the next step. If `t` holds the
    /// baton from a grant it already ran under, the baton is re-drawn
    /// first (this is the interleaving point); a grant `t` has not taken
    /// yet — it was drawn before `t` got here — is taken as is.
    ///
    /// # Errors
    ///
    /// `Err(Crashed)` once [`crash`](Turnstile::crash) was called: the
    /// caller must unwind its operation and [`finish`](Turnstile::finish).
    ///
    /// # Panics
    ///
    /// Panics on a poisoned lock (a worker panicked mid-step).
    pub fn yield_point(&self, t: usize) -> Result<(), Crashed> {
        let mut st = self.state.lock().expect("turnstile poisoned");
        if st.crashed {
            return Err(Crashed);
        }
        if st.current == t && st.consumed {
            st.pass();
            self.cv.notify_all();
        }
        while st.current != t {
            if st.crashed {
                return Err(Crashed);
            }
            st = self.cv.wait(st).expect("turnstile poisoned");
        }
        if st.crashed {
            return Err(Crashed);
        }
        st.consumed = true;
        Ok(())
    }

    /// Retires thread `t` (normal completion or post-crash unwind) and
    /// hands the baton on if `t` held it.
    ///
    /// # Panics
    ///
    /// Panics on a poisoned lock.
    pub fn finish(&self, t: usize) {
        let mut st = self.state.lock().expect("turnstile poisoned");
        st.active[t] = false;
        if st.current == t {
            st.pass();
        }
        self.cv.notify_all();
    }

    /// Declares a machine-wide crash: every waiter (and every later
    /// yield) returns `Err(Crashed)`.
    ///
    /// # Panics
    ///
    /// Panics on a poisoned lock.
    pub fn crash(&self) {
        let mut st = self.state.lock().expect("turnstile poisoned");
        st.crashed = true;
        self.cv.notify_all();
    }

    /// Whether a crash was declared.
    ///
    /// # Panics
    ///
    /// Panics on a poisoned lock.
    #[must_use]
    pub fn crashed(&self) -> bool {
        self.state.lock().expect("turnstile poisoned").crashed
    }

    /// Baton grants so far (a deterministic logical clock).
    ///
    /// # Panics
    ///
    /// Panics on a poisoned lock.
    #[must_use]
    pub fn grants(&self) -> u64 {
        self.state.lock().expect("turnstile poisoned").grants
    }

    /// Threads that have not yet [`finish`](Turnstile::finish)ed. A
    /// background participant (e.g. a patrol scrubber) polls this to
    /// retire once every mutator is done — without it, the scrubber
    /// would spin on its yield point forever.
    ///
    /// # Panics
    ///
    /// Panics on a poisoned lock.
    #[must_use]
    pub fn active_count(&self) -> usize {
        let st = self.state.lock().expect("turnstile poisoned");
        st.active.iter().filter(|a| **a).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn histogram(order: &[u32], threads: usize) -> Vec<u64> {
        let mut h = vec![0u64; threads];
        for &t in order {
            h[t as usize] += 1;
        }
        h
    }

    #[test]
    fn every_policy_conserves_the_scripts() {
        let counts = [5u64, 0, 3, 9];
        for policy in [Policy::RoundRobin, Policy::Seeded(1), Policy::Seeded(0xDEAD)] {
            let order = schedule(policy, &counts);
            assert_eq!(histogram(&order, counts.len()), counts.to_vec(), "{policy:?}");
        }
    }

    #[test]
    fn round_robin_is_cyclic_and_skips_exhausted() {
        assert_eq!(schedule(Policy::RoundRobin, &[3, 1]), vec![0, 1, 0, 0]);
        assert_eq!(schedule(Policy::RoundRobin, &[1, 2, 2]), vec![0, 1, 2, 1, 2]);
    }

    #[test]
    fn seeded_schedules_replay_and_differ_across_seeds() {
        let counts = [20u64, 20, 20, 20];
        let base = schedule(Policy::Seeded(0), &counts);
        assert_eq!(base, schedule(Policy::Seeded(0), &counts), "replayable");
        let mut any_different = false;
        for seed in 1..8 {
            if schedule(Policy::Seeded(seed), &counts) != base {
                any_different = true;
            }
        }
        assert!(any_different, "seeds must explore distinct interleavings");
    }

    /// Runs `threads` workers over a shared log under a turnstile;
    /// returns the observed step order.
    fn turnstile_trace(threads: usize, steps_per_thread: usize, seed: u64) -> Vec<usize> {
        staggered_trace(threads, steps_per_thread, seed, |_| 0)
    }

    /// [`turnstile_trace`] where thread `t` sleeps `delay_ms(t)` before
    /// its first yield, forcing a chosen arrival order.
    fn staggered_trace(
        threads: usize,
        steps_per_thread: usize,
        seed: u64,
        delay_ms: fn(usize) -> u64,
    ) -> Vec<usize> {
        let ts = Arc::new(Turnstile::new(threads, seed));
        let log = Arc::new(Mutex::new(Vec::new()));
        std::thread::scope(|s| {
            for t in 0..threads {
                let (ts, log) = (Arc::clone(&ts), Arc::clone(&log));
                s.spawn(move || {
                    std::thread::sleep(std::time::Duration::from_millis(delay_ms(t)));
                    for _ in 0..steps_per_thread {
                        if ts.yield_point(t).is_err() {
                            break;
                        }
                        log.lock().unwrap().push(t);
                    }
                    ts.finish(t);
                });
            }
        });
        Arc::try_unwrap(log).unwrap().into_inner().unwrap()
    }

    #[test]
    fn turnstile_serializes_and_replays() {
        let a = turnstile_trace(4, 25, 9);
        assert_eq!(a.len(), 100, "every step ran");
        for t in 0..4 {
            assert_eq!(a.iter().filter(|&&x| x == t).count(), 25, "thread {t} ran fully");
        }
        let b = turnstile_trace(4, 25, 9);
        assert_eq!(a, b, "same seed, same interleaving, any host timing");
        let c = turnstile_trace(4, 25, 10);
        assert_ne!(a, c, "different seeds explore different interleavings");
    }

    #[test]
    fn turnstile_schedule_ignores_arrival_order() {
        // A thread granted the baton before it first arrives must take
        // that grant like a waiter would, whichever thread arrives last.
        for seed in 0..8 {
            let together = turnstile_trace(4, 6, seed);
            let ascending = staggered_trace(4, 6, seed, |t| 3 * t as u64);
            let descending = staggered_trace(4, 6, seed, |t| 3 * (3 - t as u64));
            assert_eq!(ascending, descending, "seed {seed}: arrival order leaked");
            assert_eq!(together, ascending, "seed {seed}: start-up stagger leaked");
        }
    }

    #[test]
    fn turnstile_crash_stops_every_thread() {
        let ts = Arc::new(Turnstile::new(3, 1));
        let stopped = Arc::new(Mutex::new(0u32));
        std::thread::scope(|s| {
            for t in 0..3usize {
                let (ts, stopped) = (Arc::clone(&ts), Arc::clone(&stopped));
                s.spawn(move || {
                    for i in 0..10_000 {
                        if ts.yield_point(t).is_err() {
                            *stopped.lock().unwrap() += 1;
                            break;
                        }
                        if t == 1 && i == 5 {
                            ts.crash(); // thread 1 trips the gate mid-run
                            *stopped.lock().unwrap() += 1;
                            break;
                        }
                    }
                    ts.finish(t);
                });
            }
        });
        assert!(ts.crashed());
        assert_eq!(*stopped.lock().unwrap(), 3, "all threads observed the crash");
    }

    #[test]
    fn steps_tracks_per_thread_positions() {
        let order = schedule(Policy::Seeded(3), &[4, 4]);
        let mut seen = vec![Vec::new(), Vec::new()];
        for (t, i) in steps(&order) {
            seen[t as usize].push(i);
        }
        assert_eq!(seen[0], vec![0, 1, 2, 3], "script order preserved");
        assert_eq!(seen[1], vec![0, 1, 2, 3]);
    }
}
