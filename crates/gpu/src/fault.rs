//! Deterministic fault injection for chaos testing.
//!
//! The fault model mirrors how real GPU fleets fail: a kernel launch errors
//! or wedges, an allocation (host→device staging) fails, a device→host
//! readback hits a transient bus error, or a device simply runs slow. Each
//! injected fault is classified **transient** (the same operation succeeds
//! when retried) or **permanent** (the device is gone for the rest of the
//! run). The injection points are the existing choke points every
//! simulation already goes through — [`crate::Device::launch`],
//! [`crate::DeviceMemory::h2d`], and [`crate::DeviceMemory::d2h`] — so no separate "chaos build" of the
//! engine exists: the `fault-inject` feature only arms the checks.
//!
//! Faults fire by index, not by time: a `FaultPlan` names the *n*-th call
//! at a `FaultSite` (counted from when the plan is armed; both types exist
//! only under `fault-inject`), which makes every fault schedule
//! deterministic and replayable from a seed. A fault manifests as a panic
//! carrying a typed [`DeviceFaultPanic`] payload; the session layer
//! catches it at the segment boundary, converts it into a structured
//! error, and retries or fails over. A permanent fault additionally
//! latches the device's `DeviceHealth` flag so every later operation on
//! that device fails fast with `retryable: false`.
//!
//! The always-compiled types ([`FaultKind`], [`DeviceFaultPanic`],
//! `DeviceHealth`) cost nothing when the feature is off — no check sites
//! reference them — but keep the session layer's recovery code free of
//! feature gates.

use crate::sync::atomic::{AtomicBool, AtomicU32, Ordering};

#[cfg(feature = "fault-inject")]
use crate::sync::atomic::AtomicU64;

/// What failed on the device. Carried by [`DeviceFaultPanic`] and by the
/// session layer's `CoreError::DeviceFault`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultKind {
    /// A kernel launch failed or wedged.
    Launch,
    /// A device allocation / host→device staging copy failed.
    Alloc,
    /// A device→host readback failed.
    Transfer,
    /// A host worker thread servicing the device panicked (any panic that
    /// is not one of the injected classes above is reported as this).
    Worker,
}

// Without `fault-inject` nothing arms the latch, but the type stays
// compiled so the session layer's recovery code is feature-free.
#[cfg_attr(not(feature = "fault-inject"), allow(dead_code))]
impl FaultKind {
    fn as_u32(self) -> u32 {
        match self {
            FaultKind::Launch => 0,
            FaultKind::Alloc => 1,
            FaultKind::Transfer => 2,
            FaultKind::Worker => 3,
        }
    }

    fn from_u32(v: u32) -> FaultKind {
        match v {
            0 => FaultKind::Launch,
            1 => FaultKind::Alloc,
            2 => FaultKind::Transfer,
            _ => FaultKind::Worker,
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultKind::Launch => write!(f, "launch"),
            FaultKind::Alloc => write!(f, "alloc"),
            FaultKind::Transfer => write!(f, "transfer"),
            FaultKind::Worker => write!(f, "worker"),
        }
    }
}

/// The typed panic payload an injected fault unwinds with.
///
/// The session layer downcasts unwind payloads to this type at the segment
/// boundary (`catch_unwind`) and converts them into
/// `CoreError::DeviceFault { device, kind, retryable }`; `retryable: false`
/// means the device has permanently failed and its work must fail over.
#[derive(Debug, Clone, Copy)]
pub struct DeviceFaultPanic {
    /// Index of the faulted device in its fleet (0 for single-device runs).
    pub device: usize,
    /// What failed.
    pub kind: FaultKind,
    /// `true` for transient faults (retry the segment on the same device),
    /// `false` for permanent ones (the device is dead).
    pub retryable: bool,
}

/// Permanent-failure latch for one device.
///
/// A permanent fault stores its [`FaultKind`] and then raises the `failed`
/// flag with a `Release` store; readers check the flag with `Acquire` and,
/// only behind it, read the kind `Relaxed` — the flag's edge is what
/// publishes the kind (model test `fault_latch_publishes_kind`). This is
/// the one piece of fault state that outlives a single injected panic, so
/// it is the piece that must be safe to read from any worker thread.
#[derive(Debug)]
#[cfg_attr(not(feature = "fault-inject"), allow(dead_code))]
pub(crate) struct DeviceHealth {
    failed: AtomicBool,
    kind: AtomicU32,
}

#[cfg_attr(not(feature = "fault-inject"), allow(dead_code))]
impl DeviceHealth {
    pub(crate) fn new() -> Self {
        DeviceHealth {
            failed: AtomicBool::new(false),
            kind: AtomicU32::new(FaultKind::Worker.as_u32()),
        }
    }

    /// Latches the device as permanently failed with `kind`.
    pub(crate) fn mark_failed(&self, kind: FaultKind) {
        // relaxed-ok: the kind rides the `failed` Release store below; no
        // reader looks at it before observing `failed` with Acquire.
        self.kind.store(kind.as_u32(), Ordering::Relaxed);
        // anchor: fault-latch-store
        // pairs-with: crates/gpu/src/fault.rs:fault-latch-load
        self.failed.store(true, Ordering::Release);
    }

    /// Returns the latched [`FaultKind`] if the device has permanently
    /// failed.
    pub(crate) fn failed_kind(&self) -> Option<FaultKind> {
        // anchor: fault-latch-load
        // pairs-with: crates/gpu/src/fault.rs:fault-latch-store
        if self.failed.load(Ordering::Acquire) {
            // relaxed-ok: the Acquire load above synchronizes with
            // `mark_failed`'s Release store, which the kind store is
            // sequenced before.
            Some(FaultKind::from_u32(self.kind.load(Ordering::Relaxed)))
        } else {
            None
        }
    }
}

/// Where a fault fires. Each site has its own deterministic call counter
/// in the armed [`FaultInjector`].
#[cfg(feature = "fault-inject")]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultSite {
    /// Entry of `Device::launch`.
    Launch,
    /// Entry of `DeviceMemory::h2d` — models a failed device allocation or
    /// staging copy.
    Alloc,
    /// Entry of `DeviceMemory::d2h_into` (and `d2h`, built on it) — models
    /// a failed readback.
    Transfer,
    /// A slow-device stall: the launch call sleeps instead of failing.
    Stall,
}

#[cfg(feature = "fault-inject")]
impl FaultSite {
    const COUNT: usize = 4;

    fn index(self) -> usize {
        match self {
            FaultSite::Launch => 0,
            FaultSite::Alloc => 1,
            FaultSite::Transfer => 2,
            FaultSite::Stall => 3,
        }
    }

    fn kind(self) -> FaultKind {
        match self {
            FaultSite::Launch | FaultSite::Stall => FaultKind::Launch,
            FaultSite::Alloc => FaultKind::Alloc,
            FaultSite::Transfer => FaultKind::Transfer,
        }
    }
}

#[cfg(feature = "fault-inject")]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultAction {
    Transient,
    Permanent,
    StallMillis(u64),
}

/// A deterministic, replayable schedule of faults for one device.
///
/// Every entry names a [`FaultSite`] and the zero-based occurrence index at
/// which the fault fires, counted from the moment the plan is armed on a
/// device (see `Device::arm_faults`). Because injection is by call index —
/// not wall clock — the same plan against the same workload always faults
/// at the same operation, which is what lets the chaos suite assert
/// bit-identical outputs under retry and failover.
///
/// ```
/// use gatspi_gpu::{FaultPlan, FaultSite};
///
/// // The third kernel launch fails transiently; the first readback after
/// // that (index counts all d2h calls since arming) kills the device.
/// let plan = FaultPlan::new()
///     .with_fault(FaultSite::Launch, 2, false)
///     .with_fault(FaultSite::Transfer, 9, true);
/// # let _ = plan;
/// ```
#[cfg(feature = "fault-inject")]
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    events: Vec<(FaultSite, u64, FaultAction)>,
}

#[cfg(feature = "fault-inject")]
impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds a fault at the `at`-th call (zero-based, counted from arming)
    /// of `site`. `permanent: true` latches the device dead; `false`
    /// injects a transient fault that succeeds on retry.
    pub fn with_fault(mut self, site: FaultSite, at: u64, permanent: bool) -> Self {
        let action = if permanent {
            FaultAction::Permanent
        } else {
            FaultAction::Transient
        };
        self.events.push((site, at, action));
        self
    }

    /// Adds a slow-device stall of `millis` milliseconds at the `at`-th
    /// launch.
    pub fn with_stall(mut self, at: u64, millis: u64) -> Self {
        self.events
            .push((FaultSite::Stall, at, FaultAction::StallMillis(millis)));
        self
    }

    /// A seeded random plan of **transient-only** faults (plus possibly a
    /// short stall): up to two faults per site at call indices below
    /// `horizon`. Transient-only means a retried run always completes, so
    /// seeded plans are what the randomized equivalence suite feeds through
    /// every execution mode. The stream is deterministic per seed.
    pub fn seeded(seed: u64, horizon: u64) -> Self {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let horizon = horizon.max(1);
        let mut plan = FaultPlan::new();
        for site in [FaultSite::Launch, FaultSite::Alloc, FaultSite::Transfer] {
            for _ in 0..rng.gen_range(0u32..3) {
                plan = plan.with_fault(site, rng.gen_range(0..horizon), false);
            }
        }
        if rng.gen_bool(0.25) {
            plan = plan.with_stall(rng.gen_range(0..horizon), rng.gen_range(1u64..5));
        }
        plan
    }

    /// Number of scheduled fault events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan schedules no faults.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Armed per-device fault state: the plan's events plus one call counter
/// per [`FaultSite`] and the permanent-failure latch.
///
/// Counters keep counting across segment retries, so a transient fault at
/// occurrence `n` fires exactly once — the retry's calls land at indices
/// past `n`. The counters are `Relaxed`: launches and uploads happen on the
/// engine thread (deterministic indices), and readbacks may race across
/// drain workers, in which case *which* call observes the fault index is
/// schedule-dependent but the set of injected faults — and therefore the
/// retried, bit-identical output — is not.
#[cfg(feature = "fault-inject")]
#[derive(Debug)]
pub struct FaultInjector {
    device: usize,
    events: std::collections::HashMap<(usize, u64), FaultAction>,
    counters: [AtomicU64; FaultSite::COUNT],
    health: DeviceHealth,
    injected: AtomicU64,
}

#[cfg(feature = "fault-inject")]
impl FaultInjector {
    /// Arms `plan` for device index `device` (the index reported in
    /// [`DeviceFaultPanic::device`]).
    pub fn new(plan: &FaultPlan, device: usize) -> Self {
        let mut events = std::collections::HashMap::new();
        for &(site, at, action) in &plan.events {
            events.insert((site.index(), at), action);
        }
        FaultInjector {
            device,
            events,
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            health: DeviceHealth::new(),
            injected: AtomicU64::new(0),
        }
    }

    /// Number of faults (and stalls) injected so far.
    pub fn injected(&self) -> u64 {
        // relaxed-ok: monotonic telemetry counter, read only for reports.
        self.injected.load(Ordering::Relaxed)
    }

    /// Whether a permanent fault has latched the device dead.
    pub fn is_failed(&self) -> bool {
        self.health.failed_kind().is_some()
    }

    /// The injection check compiled into each choke point: panics with a
    /// [`DeviceFaultPanic`] if the device is latched dead or the plan
    /// schedules a fault at this call's occurrence index; stalls sleep and
    /// return.
    pub fn check(&self, site: FaultSite) {
        if let Some(kind) = self.health.failed_kind() {
            // panic-ok: typed payload, registered in the unwind manifest.
            std::panic::panic_any(DeviceFaultPanic {
                device: self.device,
                kind,
                retryable: false,
            });
        }
        // relaxed-ok: per-site occurrence counter; see the type docs for
        // why partition order does not affect the injected fault set.
        let n = self.counters[site.index()].fetch_add(1, Ordering::Relaxed);
        // Stalls share the launch call stream: a slow device is observed at
        // its launches.
        let lookup = if site == FaultSite::Launch {
            self.events
                .get(&(site.index(), n))
                .or_else(|| self.events.get(&(FaultSite::Stall.index(), n)))
        } else {
            self.events.get(&(site.index(), n))
        };
        match lookup {
            None => {}
            Some(FaultAction::StallMillis(ms)) => {
                // relaxed-ok: monotonic telemetry counter.
                self.injected.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(std::time::Duration::from_millis(*ms));
            }
            Some(FaultAction::Transient) => {
                // relaxed-ok: monotonic telemetry counter.
                self.injected.fetch_add(1, Ordering::Relaxed);
                // panic-ok: typed payload, registered in the unwind manifest.
                std::panic::panic_any(DeviceFaultPanic {
                    device: self.device,
                    kind: site.kind(),
                    retryable: true,
                });
            }
            Some(FaultAction::Permanent) => {
                // relaxed-ok: monotonic telemetry counter.
                self.injected.fetch_add(1, Ordering::Relaxed);
                self.health.mark_failed(site.kind());
                // panic-ok: typed payload, registered in the unwind manifest.
                std::panic::panic_any(DeviceFaultPanic {
                    device: self.device,
                    kind: site.kind(),
                    retryable: false,
                });
            }
        }
    }
}

#[cfg(all(test, feature = "fault-inject"))]
mod tests {
    use super::*;

    #[test]
    fn transient_fault_fires_exactly_once() {
        let plan = FaultPlan::new().with_fault(FaultSite::Launch, 1, false);
        let inj = FaultInjector::new(&plan, 3);
        inj.check(FaultSite::Launch); // call 0: clean
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            inj.check(FaultSite::Launch) // call 1: faults
        }))
        .expect_err("fault must fire");
        let fault = err.downcast::<DeviceFaultPanic>().expect("typed payload");
        assert_eq!(fault.device, 3);
        assert_eq!(fault.kind, FaultKind::Launch);
        assert!(fault.retryable);
        inj.check(FaultSite::Launch); // call 2: clean again (transient)
        assert_eq!(inj.injected(), 1);
        assert!(!inj.is_failed());
    }

    #[test]
    fn permanent_fault_latches_the_device() {
        let plan = FaultPlan::new().with_fault(FaultSite::Transfer, 0, true);
        let inj = FaultInjector::new(&plan, 0);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            inj.check(FaultSite::Transfer)
        }))
        .expect_err("fault must fire");
        let fault = err.downcast::<DeviceFaultPanic>().expect("typed payload");
        assert!(!fault.retryable);
        assert!(inj.is_failed());
        // Every later operation — any site — fails fast with the latched
        // kind.
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            inj.check(FaultSite::Launch)
        }))
        .expect_err("latched device must keep failing");
        let fault = err.downcast::<DeviceFaultPanic>().expect("typed payload");
        assert_eq!(fault.kind, FaultKind::Transfer);
        assert!(!fault.retryable);
    }

    #[test]
    fn seeded_plans_are_deterministic_and_transient() {
        let a = FaultPlan::seeded(42, 100);
        let b = FaultPlan::seeded(42, 100);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.events.iter().zip(b.events.iter()) {
            assert_eq!(x, y);
        }
        assert!(a
            .events
            .iter()
            .all(|&(_, _, action)| action != FaultAction::Permanent));
        // Different seeds eventually differ.
        assert!((0..20).any(|s| FaultPlan::seeded(s, 100).events != a.events));
    }

    #[test]
    fn stall_delays_but_does_not_fail() {
        let plan = FaultPlan::new().with_stall(0, 1);
        let inj = FaultInjector::new(&plan, 0);
        inj.check(FaultSite::Launch); // sleeps 1ms, no panic
        assert_eq!(inj.injected(), 1);
        assert!(!inj.is_failed());
    }
}

/// Exhaustive interleaving test of the permanent-failure latch
/// (`cargo test --features model-check`).
#[cfg(all(test, feature = "model-check"))]
mod model_tests {
    use super::*;

    /// ISSUE invariant (fault-flag publication): a worker that observes the
    /// `failed` flag must also observe the [`FaultKind`] stored before it —
    /// the kind store rides `mark_failed`'s Release edge. Weakening the
    /// flag's orderings to `Relaxed` yields a schedule where the reader
    /// sees `failed` but the pre-latch default kind.
    #[test]
    fn fault_latch_publishes_kind() {
        loom::model(|| {
            let health = std::sync::Arc::new(DeviceHealth::new());
            let h = std::sync::Arc::clone(&health);
            let t = loom::thread::spawn(move || {
                h.mark_failed(FaultKind::Transfer);
            });
            if let Some(kind) = health.failed_kind() {
                assert_eq!(
                    kind,
                    FaultKind::Transfer,
                    "failed flag visible but its kind is not"
                );
            }
            t.join().unwrap();
        });
    }
}
