//! Offline mini model checker for the workspace's lock-free protocols,
//! API-shaped after the `loom` crate (the build container has no crates.io
//! access, so like the other `crates/compat` shims this is a from-scratch
//! implementation of the subset the workspace needs).
//!
//! [`model`] runs a closure under every interleaving (within configurable
//! bounds) of the threads it spawns through [`thread`], with every
//! [`sync::atomic`] operation modeled under C11-style Acquire/Release vs
//! Relaxed visibility: a `Relaxed` load may legitimately observe a stale
//! value unless a happens-before edge forbids it, so an ordering that is too
//! weak produces a concrete failing execution — not a lucky pass. Failures
//! panic with a replay string that [`Builder::replay`] re-executes
//! deterministically.
//!
//! ```
//! use loom::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
//!
//! loom::model(|| {
//!     let data = std::sync::Arc::new(AtomicU64::new(0));
//!     let flag = std::sync::Arc::new(AtomicUsize::new(0));
//!     let (d, f) = (data.clone(), flag.clone());
//!     let t = loom::thread::spawn(move || {
//!         d.store(42, Ordering::Relaxed);
//!         f.store(1, Ordering::Release); // Relaxed here would fail the model
//!     });
//!     if flag.load(Ordering::Acquire) == 1 {
//!         assert_eq!(data.load(Ordering::Relaxed), 42);
//!     }
//!     t.join().unwrap();
//! });
//! ```
//!
//! # What is modeled
//!
//! * `AtomicBool`/`AtomicU32`/`AtomicU64`/`AtomicUsize`/`AtomicI32`: full
//!   modification-order + vector-clock semantics per [`sync::atomic`].
//! * [`cell::UnsafeCell`]: concurrent-access (data-race) detection.
//! * [`thread`]: `spawn`/`join`, std-shaped `scope`, `yield_now`
//!   (descheduled until another thread stores), `sleep` (same as yield).
//! * [`hint::spin_loop`]: a yield, making spin loops explorable.
//!
//! `Mutex`/`Condvar` are *not* modeled; the workspace's lock-free paths only
//! use locks where a single thread can hold them across schedule points.
//!
//! # Bounds
//!
//! Exploration is bounded exhaustive: depth-first over schedule and
//! stale-read choices, with a preemption bound (default 2 — the bugs these
//! protocols can have show up within two forced context switches) and
//! iteration/branch ceilings. [`Builder::check`] reports whether the space
//! was exhausted. Outside a model, every instrumented type falls back to
//! plain `std` behavior, so the same code path serves ordinary tests.

#![deny(missing_docs)]

mod rt;

pub mod cell;
pub mod hint;
pub mod sync;
pub mod thread;

pub use rt::Report;

/// Configures and runs a model check; [`model`] is the default-everything
/// shortcut.
#[derive(Clone, Debug)]
pub struct Builder {
    /// Maximum threads alive at once in one execution (default 8).
    pub max_threads: usize,
    /// Maximum branch points in a single execution (default 20 000).
    pub max_branches: usize,
    /// Maximum executions explored before giving up on exhausting the
    /// schedule space (default 400 000; a warning is printed if hit).
    pub max_iterations: u64,
    /// Preemption bound: how many times a runnable thread may be switched
    /// away from involuntarily, per execution. `None` = unbounded (full
    /// exhaustive). Default `Some(2)`.
    pub preemption_bound: Option<usize>,
    /// Seed permuting DFS exploration order (0 = canonical order). Distinct
    /// seeds visit the same space in a different order, which surfaces
    /// shallow bugs faster when a run is iteration-capped.
    pub seed: u64,
    /// A failing schedule string (`"t1.r0.t0"` — as printed by a failure)
    /// to replay as the only execution.
    pub replay: Option<String>,
}

impl Default for Builder {
    fn default() -> Builder {
        Builder::new()
    }
}

impl Builder {
    /// A builder with the default bounds.
    #[must_use]
    pub fn new() -> Builder {
        let d = rt::Config::default();
        Builder {
            max_threads: d.max_threads,
            max_branches: d.max_branches,
            max_iterations: d.max_iterations,
            preemption_bound: d.preemption_bound,
            seed: d.seed,
            replay: None,
        }
    }

    /// Explores `f` under every interleaving within the bounds, panicking
    /// with a replay schedule on the first failing execution. Returns how
    /// much was explored.
    ///
    /// # Panics
    ///
    /// Panics (after printing the failing schedule's replay string) when any
    /// execution fails: an assertion in `f`, a detected data race, a
    /// deadlock/livelock, or a replay mismatch.
    pub fn check<F: Fn()>(&self, f: F) -> Report {
        rt::check(
            rt::Config {
                max_threads: self.max_threads,
                max_branches: self.max_branches,
                max_iterations: self.max_iterations,
                preemption_bound: self.preemption_bound,
                seed: self.seed,
                replay: self.replay.as_deref().map(rt::parse_replay),
            },
            f,
        )
    }
}

/// Checks `f` under the default [`Builder`] bounds.
///
/// # Panics
///
/// Panics with a replay schedule on the first failing execution (see
/// [`Builder::check`]).
pub fn model<F: Fn()>(f: F) {
    Builder::new().check(f);
}

#[cfg(test)]
mod tests {
    use super::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    /// Runs a model and returns its failure message, asserting it fails.
    fn must_fail(f: impl Fn() + Send + 'static) -> String {
        let err = catch_unwind(AssertUnwindSafe(|| super::model(f)))
            .expect_err("model unexpectedly passed: the checker has lost its teeth");
        err.downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .unwrap_or_default()
    }

    #[test]
    fn message_passing_release_acquire_passes() {
        let report = super::Builder::new().check(|| {
            let data = Arc::new(AtomicU64::new(0));
            let flag = Arc::new(AtomicUsize::new(0));
            let (d, f) = (Arc::clone(&data), Arc::clone(&flag));
            let t = super::thread::spawn(move || {
                d.store(42, Ordering::Relaxed);
                f.store(1, Ordering::Release);
            });
            if flag.load(Ordering::Acquire) == 1 {
                assert_eq!(data.load(Ordering::Relaxed), 42);
            }
            t.join().unwrap();
        });
        assert!(report.exhausted, "bounded space should be exhaustible");
        assert!(report.iterations > 1, "should explore multiple schedules");
    }

    #[test]
    fn message_passing_relaxed_flag_is_caught() {
        let msg = must_fail(|| {
            let data = Arc::new(AtomicU64::new(0));
            let flag = Arc::new(AtomicUsize::new(0));
            let (d, f) = (Arc::clone(&data), Arc::clone(&flag));
            let t = super::thread::spawn(move || {
                d.store(42, Ordering::Relaxed);
                // Too weak: nothing orders the data store before the flag.
                f.store(1, Ordering::Relaxed);
            });
            if flag.load(Ordering::Acquire) == 1 {
                assert_eq!(data.load(Ordering::Relaxed), 42);
            }
            t.join().unwrap();
        });
        assert!(
            msg.contains("replay schedule"),
            "failure should carry a replay string, got: {msg}"
        );
    }

    /// Miniature of a reserve/commit ring protocol: producer fills a slot,
    /// then publishes it by advancing `tail`. With a `Release` publish the
    /// consumer can never observe an uncommitted slot.
    fn mini_ring(commit: Ordering) {
        let slot = Arc::new(AtomicU64::new(0));
        let tail = Arc::new(AtomicUsize::new(0));
        let (s, t) = (Arc::clone(&slot), Arc::clone(&tail));
        let producer = super::thread::spawn(move || {
            s.store(7, Ordering::Relaxed);
            t.store(1, commit);
        });
        while tail.load(Ordering::Acquire) < 1 {
            super::hint::spin_loop();
        }
        assert_eq!(
            slot.load(Ordering::Relaxed),
            7,
            "consumer read an uncommitted slot"
        );
        producer.join().unwrap();
    }

    #[test]
    fn ring_commit_release_passes() {
        super::model(|| mini_ring(Ordering::Release));
    }

    /// Mutation teeth: weakening the commit to `Relaxed` must produce a
    /// concrete stale-slot counterexample.
    #[test]
    fn ring_commit_relaxed_is_caught() {
        let msg = must_fail(|| mini_ring(Ordering::Relaxed));
        assert!(msg.contains("uncommitted slot"), "wrong failure: {msg}");
    }

    /// Miniature of the phase driver's arrive protocol: each worker writes
    /// its result, then arrives on a shared counter; the last arriver (the
    /// leader) reads every result. The arrive RMW chain must be `AcqRel` so
    /// the leader inherits all earlier arrivers' writes through the release
    /// sequence — both workers run concurrently, so no spawn/join edge can
    /// smuggle the visibility in.
    fn mini_arrive(arrive: Ordering) {
        let out_a = Arc::new(AtomicU64::new(0));
        let out_b = Arc::new(AtomicU64::new(0));
        let arrived = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = [Arc::clone(&out_a), Arc::clone(&out_b)]
            .into_iter()
            .enumerate()
            .map(|(i, out)| {
                let arrived = Arc::clone(&arrived);
                let (a, b) = (Arc::clone(&out_a), Arc::clone(&out_b));
                super::thread::spawn(move || {
                    out.store(i as u64 + 1, Ordering::Relaxed);
                    if arrived.fetch_add(1, arrive) + 1 == 2 {
                        // Leader: every worker's write must be visible.
                        assert_eq!(a.load(Ordering::Relaxed), 1, "leader missed a result");
                        assert_eq!(b.load(Ordering::Relaxed), 2, "leader missed a result");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn arrive_acqrel_passes() {
        super::model(|| mini_arrive(Ordering::AcqRel));
    }

    /// Mutation teeth: a `Relaxed` arrive breaks the release chain and the
    /// leader can read a worker's result slot before the worker's write.
    #[test]
    fn arrive_relaxed_is_caught() {
        let msg = must_fail(|| mini_arrive(Ordering::Relaxed));
        assert!(
            msg.contains("leader missed a result"),
            "wrong failure: {msg}"
        );
    }

    #[test]
    fn rmw_is_atomic() {
        super::model(|| {
            let n = Arc::new(AtomicU64::new(0));
            let (a, b) = (Arc::clone(&n), Arc::clone(&n));
            let t1 = super::thread::spawn(move || a.fetch_add(1, Ordering::Relaxed));
            let t2 = super::thread::spawn(move || b.fetch_add(1, Ordering::Relaxed));
            t1.join().unwrap();
            t2.join().unwrap();
            assert_eq!(n.load(Ordering::Relaxed), 2, "lost update");
        });
    }

    #[test]
    fn seqcst_forbids_store_buffer_anomaly() {
        super::model(|| {
            let x = Arc::new(AtomicU64::new(0));
            let y = Arc::new(AtomicU64::new(0));
            let (x1, y1) = (Arc::clone(&x), Arc::clone(&y));
            let t = super::thread::spawn(move || {
                x1.store(1, Ordering::SeqCst);
                y1.load(Ordering::SeqCst)
            });
            y.store(1, Ordering::SeqCst);
            let r_main = x.load(Ordering::SeqCst);
            let r_t = t.join().unwrap();
            assert!(
                r_main == 1 || r_t == 1,
                "both SeqCst loads read 0: total order violated"
            );
        });
    }

    #[test]
    fn replay_reproduces_the_same_failure() {
        let msg = must_fail(|| mini_ring(Ordering::Relaxed));
        let schedule = msg
            .lines()
            .find_map(|l| l.strip_prefix("replay schedule: "))
            .expect("failure should print a replay line")
            .trim_matches('"')
            .to_string();
        let mut b = super::Builder::new();
        b.replay = Some(schedule);
        let replay_err = catch_unwind(AssertUnwindSafe(|| {
            b.check(|| mini_ring(Ordering::Relaxed));
        }))
        .expect_err("replaying a failing schedule must fail again");
        let replay_msg = replay_err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(
            replay_msg.contains("execution 1"),
            "replay must fail on the first (only) execution: {replay_msg}"
        );
        assert!(replay_msg.contains("uncommitted slot"), "{replay_msg}");
    }

    #[test]
    fn unsafe_cell_race_is_caught() {
        let msg = must_fail(|| {
            let cell = Arc::new(super::cell::UnsafeCell::new(0u64));
            let c = Arc::clone(&cell);
            // SAFETY: deliberately racy pointer accesses — the wrapper's
            // whole job is to flag them before they could dereference
            // concurrently (the model fails the execution at the access
            // check, not after a real race).
            let t = super::thread::spawn(move || c.with_mut(|p| unsafe { *p = 1 }));
            // SAFETY: see above — the unordered read is the race under test.
            cell.with(|p| unsafe { *p });
            t.join().unwrap();
        });
        assert!(msg.contains("data race"), "wrong failure: {msg}");
    }

    #[test]
    fn unsafe_cell_ordered_access_passes() {
        super::model(|| {
            let cell = Arc::new(super::cell::UnsafeCell::new(0u64));
            let flag = Arc::new(AtomicUsize::new(0));
            let (c, f) = (Arc::clone(&cell), Arc::clone(&flag));
            let t = super::thread::spawn(move || {
                // SAFETY: exclusive access — the reader only dereferences
                // after observing the Release store below.
                c.with_mut(|p| unsafe { *p = 9 });
                f.store(1, Ordering::Release);
            });
            while flag.load(Ordering::Acquire) == 0 {
                super::hint::spin_loop();
            }
            // SAFETY: the Release/Acquire pair orders the write before this
            // read; the model's race check verifies exactly that.
            assert_eq!(cell.with(|p| unsafe { *p }), 9);
            t.join().unwrap();
        });
    }

    #[test]
    fn std_shaped_scope_works_in_model() {
        super::model(|| {
            let total = Arc::new(AtomicU64::new(0));
            super::thread::scope(|s| {
                for _ in 0..2 {
                    let total = Arc::clone(&total);
                    s.spawn(move || {
                        total.fetch_add(1, Ordering::AcqRel);
                    });
                }
            });
            // Scope exit joins both workers (with synchronization edges).
            assert_eq!(total.load(Ordering::Relaxed), 2);
        });
    }

    #[test]
    fn fallback_outside_model_behaves_like_std() {
        let n = AtomicU64::new(5);
        assert_eq!(n.fetch_add(2, Ordering::SeqCst), 5);
        assert_eq!(n.load(Ordering::Acquire), 7);
        n.store(1, Ordering::Release);
        assert_eq!(n.swap(3, Ordering::AcqRel), 1);
        assert_eq!(
            n.compare_exchange(3, 4, Ordering::SeqCst, Ordering::SeqCst),
            Ok(3)
        );
        let cell = super::cell::UnsafeCell::new(11u32);
        // SAFETY: single-threaded access to a local cell.
        assert_eq!(cell.with(|p| unsafe { *p }), 11);
    }

    #[test]
    fn deadlock_is_reported() {
        let msg = must_fail(|| {
            let flag = Arc::new(AtomicUsize::new(0));
            // Nobody ever stores: the spin can never be released.
            while flag.load(Ordering::Acquire) == 0 {
                super::hint::spin_loop();
            }
        });
        assert!(msg.contains("deadlock/livelock"), "wrong failure: {msg}");
    }

    #[test]
    fn seeded_exploration_finds_the_same_bug() {
        for seed in [1u64, 42, 1234] {
            let mut b = super::Builder::new();
            b.seed = seed;
            let err = catch_unwind(AssertUnwindSafe(|| {
                b.check(|| mini_ring(Ordering::Relaxed));
            }))
            .expect_err("seeded run must still find the stale-slot bug");
            drop(err);
        }
    }
}
