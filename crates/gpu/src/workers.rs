//! A device's worker set: the host threads that run a kernel's blocks.
//!
//! [`Device::worker_set`] opens one set for a sequence of launches — a
//! window batch's level loop — and every [`WorkerSet::launch`] of it runs
//! on the same helper threads. A launch of two or more blocks wakes the
//! helpers, the calling thread runs blocks alongside them off one atomic
//! block cursor, and the launch returns once every block has finished, its
//! lane counters summed at that join. A one-block launch, or any launch on
//! a one-worker device, runs inline on the calling thread. The helpers are
//! spawned at the set's first multi-block launch and block on a condition
//! variable between launches; they never spin.
//!
//! A panic in a block ends the launch: a helper's reaches the calling
//! thread through the helper's join and is re-raised there with its own
//! payload; the calling thread's own unwinds straight out of the launch.
//! Either way the set closes its helpers on the way out, so the panic
//! crosses the set's scope instead of leaving a thread waiting for it.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{Scope, ScopedJoinHandle};
use std::time::Instant;

use crate::perfmodel::model_launch;
use crate::{Device, KernelProfile, LaneCounters, LaunchConfig};

/// The kernel a worker set runs: called once per block with the launch's
/// argument, the block's thread range and the counters of the thread
/// running it.
type Kernel<'env, J> = dyn Fn(J, Range<usize>, &mut LaneCounters) + Sync + 'env;

/// One launch's argument and geometry.
#[derive(Clone, Copy)]
struct Launch<J> {
    arg: J,
    threads: usize,
    block: usize,
    blocks: usize,
}

impl<J: Copy> Launch<J> {
    /// Thread range of block `b`: the ranges partition `0..threads`, only
    /// the last one may be short.
    fn range(&self, b: usize) -> Range<usize> {
        b * self.block..((b + 1) * self.block).min(self.threads)
    }

    /// Claims blocks off `next` and runs them until the cursor passes the
    /// last one.
    fn run(&self, kernel: &Kernel<'_, J>, next: &AtomicUsize, lane: &mut LaneCounters) {
        loop {
            // relaxed-ok: the cursor only partitions blocks (each claim
            // gets a unique `b`); the set's lock publishes the kernel's
            // writes at the launch join.
            let b = next.fetch_add(1, Ordering::Relaxed);
            if b >= self.blocks {
                break;
            }
            kernel(self.arg, self.range(b), lane);
        }
    }
}

/// What the calling thread and its helpers share, behind one lock.
struct State<J> {
    /// Bumped by every launch that wakes the helpers.
    epoch: u64,
    /// The launch helpers may join: `Some` from its publish until the
    /// calling thread has seen every joined helper check out.
    open: Option<Launch<J>>,
    /// Helpers that joined the open launch and have not checked out.
    active: usize,
    /// The counters of the helpers that checked out of the open launch.
    lanes: LaneCounters,
    /// A helper panicked in the open launch.
    failed: bool,
    /// The set is closing: helpers return.
    closing: bool,
}

struct Shared<J> {
    state: Mutex<State<J>>,
    /// Helpers wait here for a launch or the close.
    wake: Condvar,
    /// The calling thread waits here for the open launch's last checkout.
    done: Condvar,
    /// The open launch's block cursor.
    next: AtomicUsize,
}

impl<J> Shared<J> {
    fn lock(&self) -> MutexGuard<'_, State<J>> {
        // Kernels run outside the lock and nothing inside it panics, so a
        // poisoned state is still consistent.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A helper's membership in one launch. Dropping it — after the helper's
/// last block, or while a block's panic unwinds the helper — checks the
/// helper out, so the launch join never waits for a thread that died.
struct Checkout<'a, J> {
    shared: &'a Shared<J>,
    lane: LaneCounters,
}

impl<J> Drop for Checkout<'_, J> {
    fn drop(&mut self) {
        let mut st = self.shared.lock();
        st.lanes += self.lane;
        st.failed |= std::thread::panicking();
        st.active -= 1;
        if st.active == 0 {
            self.shared.done.notify_one();
        }
    }
}

/// A helper thread: joins each launch it wakes to, at most once, until the
/// set closes.
fn help<J: Copy>(shared: &Shared<J>, kernel: &Kernel<'_, J>) {
    let mut seen = 0;
    loop {
        let launch = {
            let mut st = shared.lock();
            let launch = loop {
                if st.closing {
                    return;
                }
                match st.open {
                    Some(launch) if st.epoch != seen => break launch,
                    _ => st = shared.wake.wait(st).unwrap_or_else(PoisonError::into_inner),
                }
            };
            seen = st.epoch;
            st.active += 1;
            launch
        };
        let mut checkout = Checkout {
            shared,
            lane: LaneCounters::default(),
        };
        launch.run(kernel, &shared.next, &mut checkout.lane);
    }
}

/// The helper threads of one [`Device::worker_set`] scope, and the kernel
/// they run. Every [`launch`](WorkerSet::launch) reuses them.
pub struct WorkerSet<'scope, 'env, J> {
    device: &'env Device,
    scope: &'scope Scope<'scope, 'env>,
    shared: &'env Shared<J>,
    kernel: &'env Kernel<'env, J>,
    helpers: Vec<ScopedJoinHandle<'scope, ()>>,
}

impl<J: Copy + Send> WorkerSet<'_, '_, J> {
    /// Launches the set's kernel over logical threads `0..cfg.threads` in
    /// blocks of `cfg.threads_per_block` (a 0 reads as 1), passing `arg` to
    /// every block — the contract of [`Device::launch`]. Two or more blocks
    /// run on the calling thread and the set's helpers, up to the device's
    /// [`workers`](Device::workers) threads; one block runs inline.
    /// Returns once every block has finished.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of any block, with its payload.
    pub fn launch(&mut self, name: &str, cfg: &LaunchConfig, arg: J) -> KernelProfile {
        let t0 = Instant::now();
        let block = cfg.threads_per_block.max(1) as usize;
        let launch = Launch {
            arg,
            threads: cfg.threads,
            block,
            blocks: cfg.threads.div_ceil(block),
        };
        let mut lanes = LaneCounters::default();
        let helpers = self.device.workers().min(launch.blocks).saturating_sub(1);
        if helpers == 0 {
            for b in 0..launch.blocks {
                (self.kernel)(arg, launch.range(b), &mut lanes);
            }
        } else {
            while self.helpers.len() < helpers {
                let (shared, kernel) = (self.shared, self.kernel);
                self.helpers
                    .push(self.scope.spawn(move || help(shared, kernel)));
            }
            {
                let mut st = self.shared.lock();
                // relaxed-ok: no helper is in a launch here (the last one
                // closed with none active), and a helper reads the cursor
                // only after joining this launch under the lock.
                self.shared.next.store(0, Ordering::Relaxed);
                st.epoch += 1;
                st.open = Some(launch);
            }
            for _ in 0..helpers {
                self.shared.wake.notify_one();
            }
            launch.run(self.kernel, &self.shared.next, &mut lanes);
            let mut st = self.shared.lock();
            while st.active > 0 {
                st = self
                    .shared
                    .done
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            st.open = None;
            lanes += std::mem::take(&mut st.lanes);
            if std::mem::take(&mut st.failed) {
                drop(st);
                self.rethrow();
            }
        }
        let wall = t0.elapsed().as_secs_f64();
        let counters = (lanes.loads, lanes.stores, lanes.instructions);
        model_launch(self.device.spec(), cfg, counters, wall, name)
    }

    /// Closes the set after a helper's panic, joins every helper and
    /// re-raises the first panic's payload on the calling thread.
    fn rethrow(&mut self) -> ! {
        self.close();
        let mut payload = None;
        for helper in self.helpers.drain(..) {
            if let Err(p) = helper.join() {
                payload.get_or_insert(p);
            }
        }
        let payload = payload.unwrap_or_else(|| Box::new("a kernel worker panicked"));
        std::panic::resume_unwind(payload)
    }
}

impl<J> WorkerSet<'_, '_, J> {
    /// Tells every helper to return once it is out of its blocks.
    fn close(&self) {
        self.shared.lock().closing = true;
        self.shared.wake.notify_all();
    }
}

impl<J> Drop for WorkerSet<'_, '_, J> {
    /// Closes the helpers — on the way out of the scope, and while a panic
    /// unwinds out of it — so the scope's join never waits on a helper
    /// blocked for a launch that will not come.
    fn drop(&mut self) {
        self.close();
    }
}

impl Device {
    /// Opens a [`WorkerSet`] running `kernel` and hands it to `body`: every
    /// launch `body` makes reuses the set's helpers, which start at its
    /// first multi-block launch and are joined when `body` returns.
    /// `kernel(arg, threads, lane)` is called once per block with the
    /// launch's `arg`; per-launch data lives in `arg` or behind the
    /// kernel's own borrows, which outlive the set.
    pub fn worker_set<J, K, R>(
        &self,
        kernel: K,
        body: impl for<'scope, 'env> FnOnce(&mut WorkerSet<'scope, 'env, J>) -> R,
    ) -> R
    where
        J: Copy + Send,
        K: Fn(J, Range<usize>, &mut LaneCounters) + Sync,
    {
        let shared = Shared {
            state: Mutex::new(State {
                epoch: 0,
                open: None,
                active: 0,
                lanes: LaneCounters::default(),
                failed: false,
                closing: false,
            }),
            wake: Condvar::new(),
            done: Condvar::new(),
            next: AtomicUsize::new(0),
        };
        std::thread::scope(|scope| {
            body(&mut WorkerSet {
                device: self,
                scope,
                shared: &shared,
                kernel: &kernel,
                helpers: Vec::new(),
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DeviceSpec;
    use std::any::Any;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::mpsc;
    use std::thread::{self, ThreadId};
    use std::time::Duration;

    /// Runs `f` on a thread of its own and fails unless it returns within
    /// `secs` — the bound that turns a hung launch into a failed test.
    fn within<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        thread::spawn(move || {
            let _ = tx.send(f());
        });
        rx.recv_timeout(Duration::from_secs(secs))
            .expect("the launch returned in time")
    }

    fn text(payload: Box<dyn Any + Send>) -> String {
        match payload.downcast::<String>() {
            Ok(s) => *s,
            Err(p) => p.downcast_ref::<&str>().copied().unwrap_or("?").to_string(),
        }
    }

    /// Holds each arriving block until `n` blocks have arrived (or 10 s have
    /// passed), so a launch's other blocks must go to other threads.
    struct Rendezvous {
        arrived: Mutex<usize>,
        all: Condvar,
        n: usize,
    }

    impl Rendezvous {
        fn new(n: usize) -> Self {
            Rendezvous {
                arrived: Mutex::new(0),
                all: Condvar::new(),
                n,
            }
        }

        fn arrive(&self) {
            let mut arrived = self.arrived.lock().unwrap();
            *arrived += 1;
            self.all.notify_all();
            let wait = Duration::from_secs(10);
            drop(self.all.wait_timeout_while(arrived, wait, |a| *a < self.n));
        }
    }

    fn blocks(n: usize) -> LaunchConfig {
        LaunchConfig {
            threads: n * 64,
            threads_per_block: 64,
            ..Default::default()
        }
    }

    #[test]
    fn two_blocks_run_on_two_threads_and_one_block_inline() {
        let dev = Device::with_workers(DeviceSpec::v100(), 0, 2);
        let me = thread::current().id();
        let ids = Mutex::new(Vec::new());
        let meet = Rendezvous::new(2);
        dev.launch("two", &blocks(2), |_, _| {
            ids.lock().unwrap().push(thread::current().id());
            meet.arrive();
        });
        let ids = ids.into_inner().unwrap();
        assert_eq!(ids.len(), 2);
        assert_ne!(ids[0], ids[1], "a helper ran the second block");
        assert!(ids.contains(&me), "the calling thread ran a block");

        let one = Mutex::new(Vec::new());
        dev.launch("one", &blocks(1), |_, _| {
            one.lock().unwrap().push(thread::current().id())
        });
        assert_eq!(one.into_inner().unwrap(), [me]);
    }

    /// Every launch of one set runs each block once and sums every
    /// thread's counters, on at most `workers` threads in all: the helpers
    /// the first multi-block launch spawned serve every later one.
    #[test]
    fn launches_of_one_set_reuse_its_helpers() {
        let dev = Device::with_workers(DeviceSpec::v100(), 0, 3);
        let ids = Mutex::new(std::collections::HashSet::<ThreadId>::new());
        let kernel = |salt: usize, threads: Range<usize>, lane: &mut LaneCounters| {
            ids.lock().unwrap().insert(thread::current().id());
            lane.ops((threads.len() * salt) as u64);
        };
        dev.worker_set(kernel, |set| {
            for i in 0..40 {
                let n = [6, 1, 2, 9][i % 4];
                let p = set.launch("reuse", &blocks(n), i + 1);
                assert_eq!(p.instructions, (n * 64 * (i + 1)) as u64, "launch {i}");
            }
        });
        let n = ids.into_inner().unwrap().len();
        assert!((2..=3).contains(&n), "{n} threads ran the blocks");
    }

    #[test]
    fn helper_panic_fails_the_launch_with_its_message() {
        let (msg, after) = within(30, || {
            let dev = Device::with_workers(DeviceSpec::v100(), 0, 2);
            let me = thread::current().id();
            let meet = Rendezvous::new(2);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                dev.launch("boom", &blocks(2), |_, _| {
                    meet.arrive();
                    if thread::current().id() != me {
                        panic!("helper block failed");
                    }
                })
            }));
            let after = dev.launch("after", &blocks(4), |t, lane| lane.ops(t.len() as u64));
            (
                text(caught.expect_err("the launch panics")),
                after.instructions,
            )
        });
        assert_eq!(msg, "helper block failed");
        assert_eq!(after, 4 * 64, "the device launches again");
    }

    #[test]
    fn caller_panic_fails_the_launch_with_its_message() {
        let msg = within(30, || {
            let dev = Device::with_workers(DeviceSpec::v100(), 0, 2);
            let me = thread::current().id();
            let meet = Rendezvous::new(2);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                dev.launch("boom", &blocks(2), |_, _| {
                    meet.arrive();
                    if thread::current().id() == me {
                        panic!("caller block failed");
                    }
                    // The helper is still in its block when the caller
                    // unwinds.
                    thread::sleep(Duration::from_millis(50));
                })
            }));
            text(caught.expect_err("the launch panics"))
        });
        assert_eq!(msg, "caller block failed");
    }

    /// A calling thread that panics between launches, its helpers parked
    /// for the next one, ends the set instead of hanging it.
    #[test]
    fn caller_panic_between_launches_closes_the_set() {
        let msg = within(30, || {
            let dev = Device::with_workers(DeviceSpec::v100(), 0, 2);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                dev.worker_set(
                    |(), _, _| {},
                    |set| {
                        set.launch("first", &blocks(8), ());
                        panic!("host step failed");
                    },
                )
            }));
            text(caught.expect_err("the set panics"))
        });
        assert_eq!(msg, "host step failed");
    }
}
