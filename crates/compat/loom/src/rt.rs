//! The model-checking runtime: a deterministic bounded-exhaustive scheduler
//! over token-serialized real threads, with C11-lite memory-order modeling.
//!
//! # Execution model
//!
//! A [`crate::model`] run repeatedly executes the user closure, exploring one
//! interleaving per execution. Model threads are real OS threads, but exactly
//! one holds the *token* at a time; every instrumented operation (atomic
//! access, [`crate::cell::UnsafeCell`] access, yield, spawn, join, finish)
//! waits for the token, performs its effect under the runtime lock, then picks
//! the next thread to run. Which thread runs next — and, for atomic loads,
//! *which store the load observes* — are branch points recorded on a path;
//! depth-first backtracking over that path enumerates every interleaving
//! within the configured bounds.
//!
//! # Memory-order modeling
//!
//! Every atomic location keeps its full modification order (the list of
//! stores) for the execution. Threads carry vector clocks:
//!
//! * a `Release` store snapshots the storer's clock into the store event;
//!   RMWs extend a release sequence by inheriting the clock already on the
//!   store they displace (C++20 semantics);
//! * an `Acquire` load that observes a store joins that snapshot into the
//!   loader's clock;
//! * a `Relaxed` operation does neither;
//! * `SeqCst` additionally joins through a global clock shared by all
//!   `SeqCst` operations (single-total-order visibility, approximated).
//!
//! A load may observe *any* store in the modification order that coherence
//! and happens-before do not rule out — so reading a too-weak ordering shows
//! up as a load observing a stale value, exactly the counterexample a real
//! weakly-ordered machine could produce. RMWs always observe the latest
//! store (atomicity). One fairness refinement keeps spin loops finite: a
//! thread re-reading a location no one has stored to since its previous read
//! must observe a *strictly newer* store if one exists (bounded staleness —
//! real hardware's eventual visibility).
//!
//! # Schedules and replay
//!
//! Every branch decision is recorded; a failing execution panics with a
//! replay string like `t1.r0.t0` (thread choices `t<id>`, read choices
//! `r<store index>`). [`crate::Builder::replay`] re-runs exactly that
//! schedule for debugging.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering as StdOrdering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Sentinel thread id for a location's initial value (visible to everyone).
const INIT_TID: usize = usize::MAX;

/// Sentinel for "no thread holds the token" (only once all have finished).
const NO_THREAD: usize = usize::MAX - 1;

/// Monotonic generation counter: one per execution, across every model run
/// in the process. Atomics cache their location id tagged with the
/// generation that created it, so a stale object re-registers lazily.
static GENERATION: AtomicU64 = AtomicU64::new(1);

/// Serializes whole model runs: the test harness runs tests on several
/// threads, and two concurrently exploring models would interleave real
/// threads through each other's token machinery.
static MODEL_MUTEX: Mutex<()> = Mutex::new(());

thread_local! {
    /// The executing model thread's identity, if any. `None` means the
    /// thread is outside any model: instrumented types fall back to plain
    /// `std` semantics.
    static CURRENT: std::cell::RefCell<Option<Ctx>> = const { std::cell::RefCell::new(None) };
}

/// A model thread's handle to the shared execution.
#[derive(Clone)]
pub(crate) struct Ctx {
    pub(crate) exec: Arc<Execution>,
    pub(crate) tid: usize,
}

/// Restores the previous `CURRENT` binding on drop (including unwinds).
struct CtxGuard {
    prev: Option<Ctx>,
}

impl CtxGuard {
    fn set(ctx: Ctx) -> CtxGuard {
        let prev = CURRENT.with(|c| c.borrow_mut().replace(ctx));
        CtxGuard { prev }
    }
}

impl Drop for CtxGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CURRENT.with(|c| *c.borrow_mut() = prev);
    }
}

/// Returns the calling thread's model context, if it is a model thread.
pub(crate) fn current() -> Option<Ctx> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Whether the calling thread is executing inside a model.
pub(crate) fn in_model() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

// ---------------------------------------------------------------------------
// Vector clocks
// ---------------------------------------------------------------------------

/// A vector clock: per-thread logical timestamps.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct VClock(Vec<u64>);

impl VClock {
    fn get(&self, t: usize) -> u64 {
        self.0.get(t).copied().unwrap_or(0)
    }

    fn set(&mut self, t: usize, v: u64) {
        if self.0.len() <= t {
            self.0.resize(t + 1, 0);
        }
        self.0[t] = v;
    }

    fn tick(&mut self, t: usize) -> u64 {
        let v = self.get(t) + 1;
        self.set(t, v);
        v
    }

    fn join(&mut self, other: &VClock) {
        for (i, &v) in other.0.iter().enumerate() {
            if self.get(i) < v {
                self.set(i, v);
            }
        }
    }

    /// `self ≤ other` componentwise: everything recorded in `self`
    /// happens-before a thread whose clock is `other`.
    fn dominated_by(&self, other: &VClock) -> bool {
        self.0.iter().enumerate().all(|(i, &v)| v <= other.get(i))
    }
}

// ---------------------------------------------------------------------------
// Execution state
// ---------------------------------------------------------------------------

/// One store event in a location's modification order.
struct StoreEv {
    val: u64,
    tid: usize,
    ts: u64,
    /// Synchronization payload carried by the store: the storer's clock for
    /// `Release`-or-stronger stores; inherited by RMWs (release sequences);
    /// `None` for plain relaxed stores.
    rel: Option<VClock>,
}

impl StoreEv {
    fn happens_before(&self, clock: &VClock) -> bool {
        self.tid == INIT_TID || clock.get(self.tid) >= self.ts
    }
}

/// An atomic location's model state.
struct Location {
    stores: Vec<StoreEv>,
}

/// An [`crate::cell::UnsafeCell`]'s race-detection state.
struct CellState {
    /// Per-thread timestamp of the last write access.
    writes: VClock,
    /// Per-thread timestamp of the last read access.
    reads: VClock,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    Runnable,
    /// Spinning: not scheduled again until some thread performs a store.
    Yielded,
    /// Waiting for child threads to finish.
    Blocked,
    Finished,
}

struct ThreadSt {
    status: Status,
    clock: VClock,
    /// Locations this thread loaded since its previous `yield_now` — the
    /// observable spin condition. A yield parks only when none of them has
    /// an unobserved newer store.
    recent_reads: Vec<usize>,
    /// Whether any read since the previous `yield_now` observed a store this
    /// thread had never seen before. A loop body that just learned something
    /// new may act on it next iteration without any further store, so the
    /// yield must not park.
    observed_new: bool,
    /// Coherence floor per location: the store index this thread last
    /// observed (it may never again observe an earlier one).
    last_seen: HashMap<usize, usize>,
    /// Bounded-staleness bookkeeping: `(store index, store count)` at this
    /// thread's previous read of the location.
    last_read: HashMap<usize, (usize, usize)>,
    /// Unfinished children this thread is blocked on.
    blocked_on: Vec<usize>,
}

impl ThreadSt {
    fn new(clock: VClock) -> ThreadSt {
        ThreadSt {
            status: Status::Runnable,
            clock,
            recent_reads: Vec::new(),
            observed_new: false,
            last_seen: HashMap::new(),
            last_read: HashMap::new(),
            blocked_on: Vec::new(),
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ChoiceKind {
    Schedule,
    Read,
}

impl ChoiceKind {
    fn letter(self) -> char {
        match self {
            ChoiceKind::Schedule => 't',
            ChoiceKind::Read => 'r',
        }
    }
}

/// One recorded branch point: the concrete options available (thread ids or
/// store indices) and which of them the current depth-first pass explores.
struct Choice {
    kind: ChoiceKind,
    options: Vec<usize>,
    cursor: usize,
}

/// Everything mutable about the in-flight execution, behind one mutex.
struct ExecState {
    gen: u64,
    threads: Vec<ThreadSt>,
    active: usize,
    locations: Vec<Location>,
    cells: Vec<CellState>,
    /// The exploration path. Persists across executions of one model run;
    /// `pos` is the cursor within the current execution.
    path: Vec<Choice>,
    pos: usize,
    preemptions: usize,
    /// Global `SeqCst` clock (single-total-order approximation).
    sc: VClock,
    /// Set on failure or teardown: instrumented operations bypass the
    /// scheduler (free-run) so unwinding guards and spin loops can finish.
    aborting: bool,
    failure: Option<String>,
    trace: Vec<String>,
    cfg: Config,
}

pub(crate) struct Execution {
    state: Mutex<ExecState>,
    cv: Condvar,
}

#[derive(Clone, Debug)]
pub(crate) struct Config {
    pub max_threads: usize,
    pub max_branches: usize,
    pub max_iterations: u64,
    pub preemption_bound: Option<usize>,
    pub seed: u64,
    pub replay: Option<Vec<(char, usize)>>,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            max_threads: 8,
            max_branches: 20_000,
            max_iterations: 400_000,
            preemption_bound: Some(2),
            seed: 0,
            replay: None,
        }
    }
}

/// Outcome of a model run: how much was explored.
#[derive(Clone, Debug)]
pub struct Report {
    /// Executions (interleavings) explored.
    pub iterations: u64,
    /// Whether the bounded search space was fully enumerated (`false` when
    /// the run stopped at `max_iterations`).
    pub exhausted: bool,
}

fn lock(exec: &Execution) -> MutexGuard<'_, ExecState> {
    exec.state.lock().unwrap_or_else(|e| e.into_inner())
}

impl Execution {
    fn new(cfg: Config) -> Execution {
        Execution {
            state: Mutex::new(ExecState {
                gen: 0,
                threads: Vec::new(),
                active: 0,
                locations: Vec::new(),
                cells: Vec::new(),
                path: Vec::new(),
                pos: 0,
                preemptions: 0,
                sc: VClock::default(),
                aborting: false,
                failure: None,
                trace: Vec::new(),
                cfg,
            }),
            cv: Condvar::new(),
        }
    }

    fn begin_iteration(&self) {
        let mut st = lock(self);
        st.gen = GENERATION.fetch_add(1, StdOrdering::Relaxed);
        st.threads.clear();
        st.threads.push(ThreadSt::new({
            let mut c = VClock::default();
            c.tick(0);
            c
        }));
        st.active = 0;
        st.locations.clear();
        st.cells.clear();
        st.pos = 0;
        st.preemptions = 0;
        st.sc = VClock::default();
        st.aborting = false;
        st.failure = None;
        st.trace.clear();
    }

    /// Advances the depth-first path to the next unexplored schedule.
    /// Returns `false` once the whole bounded space has been enumerated.
    fn backtrack(&self) -> bool {
        let mut st = lock(self);
        while let Some(c) = st.path.last_mut() {
            if c.cursor + 1 < c.options.len() {
                c.cursor += 1;
                return true;
            }
            st.path.pop();
        }
        false
    }

    fn replay_string(&self) -> String {
        let st = lock(self);
        st.path[..st.pos]
            .iter()
            .map(|c| format!("{}{}", c.kind.letter(), c.options[c.cursor]))
            .collect::<Vec<_>>()
            .join(".")
    }

    fn trace_tail(&self) -> String {
        let st = lock(self);
        st.trace.join("\n")
    }
}

// ---------------------------------------------------------------------------
// Scheduling primitives (all called with the state lock held)
// ---------------------------------------------------------------------------

/// Deterministic seed-permutation of a branch's options.
fn permute(options: &mut [usize], seed: u64, depth: u64) {
    if seed == 0 || options.len() < 2 {
        return;
    }
    let mut x = (seed ^ depth.wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1;
    for i in (1..options.len()).rev() {
        // xorshift64
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        options.swap(i, (x as usize) % (i + 1));
    }
}

/// Records (or replays) a branch point and returns the chosen option.
fn branch(st: &mut ExecState, kind: ChoiceKind, mut options: Vec<usize>) -> Result<usize, String> {
    debug_assert!(!options.is_empty());
    let depth = st.pos as u64;
    permute(&mut options, st.cfg.seed, depth);
    if let Some(replay) = &st.cfg.replay {
        // Forced schedule: follow the recorded decisions, defaulting to the
        // first option once the recording runs out.
        let chosen = match replay.get(st.pos) {
            Some(&(letter, value)) => {
                if letter != kind.letter() || !options.contains(&value) {
                    return Err(format!(
                        "replay mismatch at step {}: recorded {}{} but options are {}{:?}",
                        st.pos,
                        letter,
                        value,
                        kind.letter(),
                        options
                    ));
                }
                value
            }
            None => options[0],
        };
        st.path.push(Choice {
            kind,
            options: vec![chosen],
            cursor: 0,
        });
        st.pos += 1;
        return Ok(chosen);
    }
    if st.pos < st.path.len() {
        let c = &st.path[st.pos];
        if c.kind != kind || c.options != options {
            return Err(format!(
                "non-deterministic model closure: branch {} changed between executions \
                 (was {}{:?}, now {}{:?}); model closures must not branch on real time \
                 or external state",
                st.pos,
                c.kind.letter(),
                c.options,
                kind.letter(),
                options
            ));
        }
        let v = c.options[c.cursor];
        st.pos += 1;
        return Ok(v);
    }
    if st.path.len() >= st.cfg.max_branches {
        return Err(format!(
            "execution exceeded max_branches = {} (deepen the bound or shrink the model)",
            st.cfg.max_branches
        ));
    }
    let v = options[0];
    st.path.push(Choice {
        kind,
        options,
        cursor: 0,
    });
    st.pos += 1;
    Ok(v)
}

/// Picks the thread that executes the next operation. Preemption-bounded:
/// once the budget is spent, the current thread keeps running while it can.
fn choose_next(st: &mut ExecState, current: usize) -> Result<(), String> {
    let runnable: Vec<usize> = st
        .threads
        .iter()
        .enumerate()
        .filter(|(_, t)| t.status == Status::Runnable)
        .map(|(i, _)| i)
        .collect();
    if runnable.is_empty() {
        if st.threads.iter().all(|t| t.status == Status::Finished) {
            st.active = NO_THREAD;
            return Ok(());
        }
        let stuck: Vec<String> = st
            .threads
            .iter()
            .enumerate()
            .map(|(i, t)| format!("t{i}:{:?}", t.status))
            .collect();
        return Err(format!(
            "deadlock/livelock: no runnable thread ({}) — every unfinished thread is \
             spinning or blocked with nothing left to wake it",
            stuck.join(", ")
        ));
    }
    let current_runnable = runnable.contains(&current);
    let bounded = st.cfg.preemption_bound.is_some_and(|b| st.preemptions >= b);
    let options = if bounded && current_runnable {
        vec![current]
    } else {
        runnable
    };
    let chosen = if options.len() == 1 {
        options[0]
    } else {
        branch(st, ChoiceKind::Schedule, options)?
    };
    if chosen != current && current_runnable {
        st.preemptions += 1;
    }
    st.active = chosen;
    Ok(())
}

/// Updates `tid`'s coherence floor for `loc` after reading store `idx`,
/// flagging the read as observation progress if the thread had never seen
/// that store before (which keeps its next yield from parking).
fn note_observation(st: &mut ExecState, tid: usize, loc: usize, idx: usize) {
    let th = &mut st.threads[tid];
    if th.last_seen.get(&loc).is_none_or(|&p| idx > p) {
        th.observed_new = true;
    }
    th.last_seen.insert(loc, idx);
}

/// Any store wakes every spinning thread: its next spin iteration may now
/// observe something new.
fn wake_yielded(st: &mut ExecState) {
    for t in st.threads.iter_mut() {
        if t.status == Status::Yielded {
            t.status = Status::Runnable;
        }
    }
}

fn push_trace(st: &mut ExecState, line: String) {
    if st.trace.len() >= 64 {
        st.trace.remove(0);
    }
    st.trace.push(line);
}

// ---------------------------------------------------------------------------
// The per-operation entry point
// ---------------------------------------------------------------------------

/// Runs `op` as one scheduled step of the model: waits for the token,
/// applies the operation under the lock, schedules the next thread. During
/// teardown (`aborting`), runs `op` in free-run mode instead. Panics (after
/// releasing the lock) if the operation or the scheduler reports a failure,
/// which unwinds the model thread through its cleanup guards.
fn step<R>(
    ctx: &Ctx,
    op: impl FnOnce(&mut ExecState, usize) -> Result<R, String>,
    freerun: impl FnOnce(&mut ExecState, usize) -> R,
) -> R {
    let exec = &ctx.exec;
    let mut st = lock(exec);
    loop {
        if st.aborting {
            let r = freerun(&mut st, ctx.tid);
            drop(st);
            exec.cv.notify_all();
            return r;
        }
        if st.active == ctx.tid {
            break;
        }
        st = exec.cv.wait(st).unwrap_or_else(|e| e.into_inner());
    }
    let result = op(&mut st, ctx.tid).and_then(|r| choose_next(&mut st, ctx.tid).map(|()| r));
    match result {
        Ok(r) => {
            drop(st);
            exec.cv.notify_all();
            r
        }
        Err(msg) => {
            st.aborting = true;
            if st.failure.is_none() {
                st.failure = Some(msg.clone());
            }
            drop(st);
            exec.cv.notify_all();
            panic!("model check failure: {msg}");
        }
    }
}

/// Blocks the calling model thread until its status is `Runnable` and it
/// holds the token again (or the execution is aborting).
fn wait_until_scheduled(ctx: &Ctx) {
    let exec = &ctx.exec;
    let mut st = lock(exec);
    while !st.aborting && st.active != ctx.tid {
        st = exec.cv.wait(st).unwrap_or_else(|e| e.into_inner());
    }
}

// ---------------------------------------------------------------------------
// Atomic location modeling
// ---------------------------------------------------------------------------

/// Instrumented atomic storage shared by every [`crate::sync::atomic`] type:
/// a plain fallback value for use outside models, plus a lazily-registered
/// model location tagged with the execution generation that created it.
pub(crate) struct ModelAtomic {
    fallback: AtomicU64,
    /// `(generation << 24) | (location id + 1)`; 0 = unregistered.
    tag: AtomicU64,
}

const TAG_LOC_BITS: u64 = 24;
const TAG_LOC_MASK: u64 = (1 << TAG_LOC_BITS) - 1;

impl ModelAtomic {
    pub(crate) const fn new(v: u64) -> ModelAtomic {
        ModelAtomic {
            fallback: AtomicU64::new(v),
            tag: AtomicU64::new(0),
        }
    }

    pub(crate) fn fallback_value(&self) -> u64 {
        self.fallback.load(StdOrdering::Relaxed)
    }

    /// Resolves (registering if needed) this atomic's location id within the
    /// active execution. Called with the state lock held.
    fn loc(&self, st: &mut ExecState) -> usize {
        let tag = self.tag.load(StdOrdering::Relaxed);
        if tag >> TAG_LOC_BITS == st.gen && tag & TAG_LOC_MASK != 0 {
            return ((tag & TAG_LOC_MASK) - 1) as usize;
        }
        let id = st.locations.len();
        assert!((id as u64) < TAG_LOC_MASK - 1, "model location id overflow");
        st.locations.push(Location {
            stores: vec![StoreEv {
                val: self.fallback_value(),
                tid: INIT_TID,
                ts: 0,
                rel: None,
            }],
        });
        self.tag.store(
            (st.gen << TAG_LOC_BITS) | (id as u64 + 1),
            StdOrdering::Relaxed,
        );
        id
    }

    pub(crate) fn load(&self, ord: crate::sync::atomic::Ordering) -> u64 {
        match current() {
            None => self.fallback.load(StdOrdering::Relaxed),
            Some(ctx) => step(
                &ctx,
                |st, tid| {
                    let loc = self.loc(st);
                    do_load(st, tid, loc, ord)
                },
                |st, _| {
                    let loc = self.loc(st);
                    st.locations[loc].stores.last().map_or(0, |s| s.val)
                },
            ),
        }
    }

    pub(crate) fn store(&self, val: u64, ord: crate::sync::atomic::Ordering) {
        match current() {
            None => self.fallback.store(val, StdOrdering::Relaxed),
            Some(ctx) => {
                step(
                    &ctx,
                    |st, tid| {
                        let loc = self.loc(st);
                        do_store(st, tid, loc, val, ord);
                        Ok(())
                    },
                    |st, tid| {
                        let loc = self.loc(st);
                        free_store(st, tid, loc, val);
                    },
                );
                self.fallback.store(val, StdOrdering::Relaxed);
            }
        }
    }

    /// Read-modify-write: applies `f` to the latest value; `None` means
    /// "fail the exchange" (the comparison part of `compare_exchange`).
    /// Returns the previous value and whether the write happened. `Fn`
    /// because the out-of-model fallback is a CAS retry loop.
    pub(crate) fn rmw(
        &self,
        ord: crate::sync::atomic::Ordering,
        f: impl Fn(u64) -> Option<u64>,
    ) -> (u64, bool) {
        match current() {
            None => {
                // Outside a model: emulate with a CAS loop over the fallback.
                let mut old = self.fallback.load(StdOrdering::SeqCst);
                loop {
                    match f(old) {
                        None => return (old, false),
                        Some(new) => match self.fallback.compare_exchange(
                            old,
                            new,
                            StdOrdering::SeqCst,
                            StdOrdering::SeqCst,
                        ) {
                            Ok(_) => return (old, true),
                            Err(v) => old = v,
                        },
                    }
                }
            }
            Some(ctx) => {
                let (old, wrote) = step(
                    &ctx,
                    |st, tid| {
                        let loc = self.loc(st);
                        Ok(do_rmw(st, tid, loc, ord, &f))
                    },
                    |st, tid| {
                        let loc = self.loc(st);
                        let old = st.locations[loc].stores.last().map_or(0, |s| s.val);
                        match f(old) {
                            None => (old, false),
                            Some(new) => {
                                free_store(st, tid, loc, new);
                                (old, true)
                            }
                        }
                    },
                );
                if wrote {
                    // Mirror the latest model value for post-model readers.
                    let mut st = lock(&ctx.exec);
                    let loc = self.loc(&mut st);
                    let latest = st.locations[loc].stores.last().map_or(0, |s| s.val);
                    drop(st);
                    self.fallback.store(latest, StdOrdering::Relaxed);
                }
                (old, wrote)
            }
        }
    }
}

impl std::fmt::Debug for ModelAtomic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.fallback_value())
    }
}

use crate::sync::atomic::Ordering;

fn is_acquire(ord: Ordering) -> bool {
    matches!(ord, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
}

fn is_release(ord: Ordering) -> bool {
    matches!(ord, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
}

fn do_load(st: &mut ExecState, tid: usize, loc: usize, ord: Ordering) -> Result<u64, String> {
    st.threads[tid].clock.tick(tid);
    if ord == Ordering::SeqCst {
        let sc = st.sc.clone();
        st.threads[tid].clock.join(&sc);
    }
    let n = st.locations[loc].stores.len();
    let mut floor = st.threads[tid].last_seen.get(&loc).copied().unwrap_or(0);
    // Happens-before: a load may not observe a store older than the newest
    // store already ordered before this thread's current point.
    for i in (floor..n).rev() {
        let clock = &st.threads[tid].clock;
        if st.locations[loc].stores[i].happens_before(clock) {
            floor = floor.max(i);
            break;
        }
    }
    // Bounded staleness: re-reading with no intervening store must make
    // progress toward the latest value, so model spin loops terminate.
    if let Some(&(idx, count)) = st.threads[tid].last_read.get(&loc) {
        if count == n && idx + 1 < n {
            floor = floor.max(idx + 1);
        } else {
            floor = floor.max(idx);
        }
    }
    let chosen = if floor + 1 >= n {
        n - 1
    } else {
        branch(st, ChoiceKind::Read, (floor..n).collect())?
    };
    if is_acquire(ord) {
        if let Some(rel) = st.locations[loc].stores[chosen].rel.clone() {
            st.threads[tid].clock.join(&rel);
        }
    }
    if ord == Ordering::SeqCst {
        let clock = st.threads[tid].clock.clone();
        st.sc.join(&clock);
    }
    note_observation(st, tid, loc, chosen);
    st.threads[tid].last_read.insert(loc, (chosen, n));
    if !st.threads[tid].recent_reads.contains(&loc) {
        st.threads[tid].recent_reads.push(loc);
    }
    let val = st.locations[loc].stores[chosen].val;
    push_trace(
        st,
        format!("t{tid} load  loc{loc}[{chosen}] -> {val} ({ord:?})"),
    );
    Ok(val)
}

fn do_store(st: &mut ExecState, tid: usize, loc: usize, val: u64, ord: Ordering) {
    let ts = st.threads[tid].clock.tick(tid);
    if ord == Ordering::SeqCst {
        let sc = st.sc.clone();
        st.threads[tid].clock.join(&sc);
    }
    let rel = is_release(ord).then(|| st.threads[tid].clock.clone());
    if ord == Ordering::SeqCst {
        let clock = st.threads[tid].clock.clone();
        st.sc.join(&clock);
    }
    st.locations[loc].stores.push(StoreEv { val, tid, ts, rel });
    let idx = st.locations[loc].stores.len() - 1;
    st.threads[tid].last_seen.insert(loc, idx);
    st.threads[tid].last_read.insert(loc, (idx, idx + 1));
    push_trace(
        st,
        format!("t{tid} store loc{loc}[{idx}] <- {val} ({ord:?})"),
    );
    wake_yielded(st);
}

fn do_rmw(
    st: &mut ExecState,
    tid: usize,
    loc: usize,
    ord: Ordering,
    f: impl Fn(u64) -> Option<u64>,
) -> (u64, bool) {
    let ts = st.threads[tid].clock.tick(tid);
    if ord == Ordering::SeqCst {
        let sc = st.sc.clone();
        st.threads[tid].clock.join(&sc);
    }
    // Atomicity: an RMW always observes the latest store.
    let last = st.locations[loc].stores.len() - 1;
    let old = st.locations[loc].stores[last].val;
    let new = f(old);
    if is_acquire(ord) {
        if let Some(rel) = st.locations[loc].stores[last].rel.clone() {
            st.threads[tid].clock.join(&rel);
        }
    }
    match new {
        None => {
            note_observation(st, tid, loc, last);
            st.threads[tid].last_read.insert(loc, (last, last + 1));
            push_trace(st, format!("t{tid} rmw   loc{loc} fail at {old} ({ord:?})"));
            (old, false)
        }
        Some(new) => {
            // Release-sequence carry: the new store inherits the displaced
            // store's synchronization payload, extended by our own clock if
            // this RMW releases.
            let mut rel = st.locations[loc].stores[last].rel.clone();
            if is_release(ord) {
                let clock = st.threads[tid].clock.clone();
                match &mut rel {
                    Some(r) => r.join(&clock),
                    None => rel = Some(clock),
                }
            }
            if ord == Ordering::SeqCst {
                let clock = st.threads[tid].clock.clone();
                st.sc.join(&clock);
            }
            st.locations[loc].stores.push(StoreEv {
                val: new,
                tid,
                ts,
                rel,
            });
            let idx = st.locations[loc].stores.len() - 1;
            // The RMW *read* store `last`; the self-authored store at `idx`
            // is not an observation, only the new coherence floor.
            note_observation(st, tid, loc, last);
            st.threads[tid].last_seen.insert(loc, idx);
            st.threads[tid].last_read.insert(loc, (idx, idx + 1));
            push_trace(
                st,
                format!("t{tid} rmw   loc{loc}[{idx}] {old} -> {new} ({ord:?})"),
            );
            wake_yielded(st);
            (old, true)
        }
    }
}

/// Teardown-mode store: latest-value semantics, no scheduling.
fn free_store(st: &mut ExecState, tid: usize, loc: usize, val: u64) {
    let tid = if tid < st.threads.len() { tid } else { 0 };
    let ts = st.threads[tid].clock.tick(tid);
    st.locations[loc].stores.push(StoreEv {
        val,
        tid,
        ts,
        rel: None,
    });
    wake_yielded(st);
}

// ---------------------------------------------------------------------------
// Cells
// ---------------------------------------------------------------------------

/// Registers/validates an [`crate::cell::UnsafeCell`] access; panics with a
/// data-race counterexample when the access is not ordered against every
/// conflicting one.
pub(crate) fn cell_access(tag: &AtomicU64, write: bool) {
    let Some(ctx) = current() else { return };
    step(
        &ctx,
        |st, tid| {
            let id = {
                let t = tag.load(StdOrdering::Relaxed);
                if t >> TAG_LOC_BITS == st.gen && t & TAG_LOC_MASK != 0 {
                    ((t & TAG_LOC_MASK) - 1) as usize
                } else {
                    let id = st.cells.len();
                    st.cells.push(CellState {
                        writes: VClock::default(),
                        reads: VClock::default(),
                    });
                    tag.store(
                        (st.gen << TAG_LOC_BITS) | (id as u64 + 1),
                        StdOrdering::Relaxed,
                    );
                    id
                }
            };
            let ts = st.threads[tid].clock.tick(tid);
            let clock = st.threads[tid].clock.clone();
            let cell = &mut st.cells[id];
            let ordered = if write {
                cell.writes.dominated_by(&clock) && cell.reads.dominated_by(&clock)
            } else {
                cell.writes.dominated_by(&clock)
            };
            if !ordered {
                return Err(format!(
                    "data race: t{tid} {} an UnsafeCell concurrently with an unordered {}",
                    if write { "writes" } else { "reads" },
                    if write { "access" } else { "write" },
                ));
            }
            if write {
                cell.writes.set(tid, ts);
            } else {
                cell.reads.set(tid, ts);
            }
            Ok(())
        },
        |_, _| (),
    );
}

// ---------------------------------------------------------------------------
// Thread events
// ---------------------------------------------------------------------------

/// Model `yield_now`: deschedules the thread until another thread stores.
///
/// Progress rule: the spin condition is whatever the thread *loaded since
/// its previous yield* ([`ThreadSt::recent_reads`]). The yield keeps the
/// thread runnable if either
///
/// 1. one of those locations has an unobserved newer store — the
///    bounded-staleness rule in [`do_load`] forces the next read of it to
///    advance, or
/// 2. some read this window observed a store the thread had never seen
///    ([`ThreadSt::observed_new`]) — the loop body may act on the new value
///    next iteration without any further store (e.g. a drain loop that
///    re-checks a cursor *after* its yield point).
///
/// Otherwise it parks until some store wakes it ([`wake_yielded`]). Scoping
/// the check to recent reads (not everything the thread ever read) is what
/// lets a spinner on a gate flag park even while unrelated locations it touched
/// earlier (block cursors, arrival counters) still hold stores it will
/// never re-read. Both escape clauses are bounded by the finite store count,
/// so yields cannot stay runnable forever.
pub(crate) fn yield_now() {
    match current() {
        None => std::thread::yield_now(),
        Some(ctx) => {
            step(
                &ctx,
                |st, tid| {
                    let th = &st.threads[tid];
                    let has_unseen = th.recent_reads.iter().any(|&loc| {
                        th.last_read
                            .get(&loc)
                            .is_some_and(|&(idx, _)| idx + 1 < st.locations[loc].stores.len())
                    });
                    let progressed = th.observed_new;
                    st.threads[tid].recent_reads.clear();
                    st.threads[tid].observed_new = false;
                    if !has_unseen && !progressed {
                        st.threads[tid].status = Status::Yielded;
                        push_trace(st, format!("t{tid} yield (parked)"));
                    } else {
                        push_trace(st, format!("t{tid} yield"));
                    }
                    Ok(())
                },
                |_, _| (),
            );
            wait_until_scheduled(&ctx);
        }
    }
}

/// Registers a child thread; returns its model thread id.
pub(crate) fn register_child(ctx: &Ctx) -> usize {
    step(
        ctx,
        |st, tid| {
            if st.threads.len() >= st.cfg.max_threads {
                return Err(format!(
                    "model thread limit exceeded (max_threads = {})",
                    st.cfg.max_threads
                ));
            }
            let child = st.threads.len();
            st.threads[tid].clock.tick(tid);
            let mut clock = st.threads[tid].clock.clone();
            clock.tick(child);
            st.threads.push(ThreadSt::new(clock));
            push_trace(st, format!("t{tid} spawn t{child}"));
            Ok(child)
        },
        |st, _| {
            // Teardown spawn: register unscheduled so clocks stay indexable.
            let child = st.threads.len();
            st.threads.push(ThreadSt::new(VClock::default()));
            child
        },
    )
}

/// Extracts a printable message from a panic payload.
pub(crate) fn payload_msg(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Runs `f` as the body of model thread `tid`, converting panics into an
/// execution abort so sibling threads tear down instead of deadlocking. The
/// panic message is recorded as the execution's failure: the payload itself
/// gets swallowed by whatever join machinery sits between this thread and
/// the checker.
pub(crate) fn run_child<R>(exec: Arc<Execution>, tid: usize, f: impl FnOnce() -> R) -> R {
    let ctx = Ctx { exec, tid };
    let _guard = CtxGuard::set(ctx.clone());
    let result = catch_unwind(AssertUnwindSafe(f));
    finish_thread(&ctx);
    match result {
        Ok(r) => r,
        Err(payload) => {
            {
                let mut st = lock(&ctx.exec);
                if st.failure.is_none() {
                    st.failure = Some(payload_msg(payload.as_ref()));
                }
            }
            abort_execution(&ctx.exec);
            std::panic::resume_unwind(payload);
        }
    }
}

/// Marks the calling model thread finished and wakes any joiner.
pub(crate) fn finish_thread(ctx: &Ctx) {
    step(
        ctx,
        |st, tid| {
            st.threads[tid].status = Status::Finished;
            // Joiners pick up this thread's clock in `block_on_children`
            // (the join-synchronization edge); here we only unblock them.
            for i in 0..st.threads.len() {
                if st.threads[i].status == Status::Blocked {
                    st.threads[i].blocked_on.retain(|&c| c != tid);
                    if st.threads[i].blocked_on.is_empty() {
                        st.threads[i].status = Status::Runnable;
                    }
                }
            }
            push_trace(st, format!("t{tid} finish"));
            Ok(())
        },
        |st, tid| {
            if tid < st.threads.len() {
                st.threads[tid].status = Status::Finished;
                for i in 0..st.threads.len() {
                    if st.threads[i].status == Status::Blocked {
                        st.threads[i].blocked_on.retain(|&c| c != tid);
                        if st.threads[i].blocked_on.is_empty() {
                            st.threads[i].status = Status::Runnable;
                        }
                    }
                }
            }
        },
    );
}

/// Blocks the calling model thread until every thread in `children` has
/// finished, then joins their clocks (the join-synchronization edge).
pub(crate) fn block_on_children(ctx: &Ctx, children: &[usize]) {
    let must_wait = step(
        ctx,
        |st, tid| {
            let remaining: Vec<usize> = children
                .iter()
                .copied()
                .filter(|&c| st.threads[c].status != Status::Finished)
                .collect();
            let wait = !remaining.is_empty();
            if wait {
                st.threads[tid].status = Status::Blocked;
                st.threads[tid].blocked_on = remaining;
                push_trace(st, format!("t{tid} join-wait"));
            }
            Ok(wait)
        },
        |_, _| false,
    );
    if must_wait {
        wait_until_scheduled(ctx);
    }
    // Join-synchronization: the children's effects happen-before the joiner.
    let mut st = lock(&ctx.exec);
    for &c in children {
        if c < st.threads.len() {
            let child_clock = st.threads[c].clock.clone();
            st.threads[ctx.tid].clock.join(&child_clock);
        }
    }
}

/// Flags the execution as aborting and wakes everything: instrumented
/// operations switch to free-run teardown semantics.
pub(crate) fn abort_execution(exec: &Execution) {
    let mut st = lock(exec);
    st.aborting = true;
    drop(st);
    exec.cv.notify_all();
}

// ---------------------------------------------------------------------------
// Model entry point
// ---------------------------------------------------------------------------

/// Runs the bounded-exhaustive exploration of `f`. See [`crate::Builder`].
pub(crate) fn check(cfg: Config, f: impl Fn()) -> Report {
    let _serial = MODEL_MUTEX.lock().unwrap_or_else(|e| e.into_inner());
    let replay_mode = cfg.replay.is_some();
    let max_iterations = cfg.max_iterations;
    let exec = Arc::new(Execution::new(cfg));
    let mut iterations = 0u64;
    loop {
        iterations += 1;
        exec.begin_iteration();
        let ctx = Ctx {
            exec: Arc::clone(&exec),
            tid: 0,
        };
        let result = {
            let _guard = CtxGuard::set(ctx.clone());
            let r = catch_unwind(AssertUnwindSafe(&f));
            if r.is_ok() {
                finish_thread(&ctx);
            } else {
                abort_execution(&exec);
            }
            r
        };
        if result.is_ok() {
            let unjoined = lock(&exec)
                .threads
                .iter()
                .any(|t| t.status != Status::Finished);
            if unjoined {
                abort_execution(&exec);
                panic!(
                    "model closure returned with unjoined model threads; join every \
                     spawned thread (or use thread::scope) before returning"
                );
            }
        }
        let failure = lock(&exec).failure.clone();
        if let Err(payload) = result {
            let replay = exec.replay_string();
            let trace = exec.trace_tail();
            // Prefer the recorded failure: panics that crossed a join came
            // out the other side as an opaque `Any` unwrap message.
            let msg = failure.unwrap_or_else(|| payload_msg(payload.as_ref()));
            panic!(
                "model check failed on execution {iterations}: {msg}\n\
                 replay schedule: \"{replay}\"\n\
                 recent operations:\n{trace}\n"
            );
        }
        if let Some(msg) = failure {
            let replay = exec.replay_string();
            panic!(
                "model check failed on execution {iterations}: {msg}\n\
                 replay schedule: \"{replay}\"\n"
            );
        }
        if replay_mode {
            return Report {
                iterations,
                exhausted: false,
            };
        }
        if !exec.backtrack() {
            return Report {
                iterations,
                exhausted: true,
            };
        }
        if iterations >= max_iterations {
            eprintln!(
                "loom: stopping after {iterations} executions without exhausting the \
                 schedule space (raise max_iterations for a complete proof)"
            );
            return Report {
                iterations,
                exhausted: false,
            };
        }
    }
}

/// Parses a replay string (`"t1.r0.t0"`) into forced branch decisions.
pub(crate) fn parse_replay(s: &str) -> Vec<(char, usize)> {
    s.split('.')
        .filter(|p| !p.is_empty())
        .map(|p| {
            let letter = p.chars().next().expect("empty replay step");
            let value: usize = p[1..]
                .parse()
                .unwrap_or_else(|_| panic!("bad replay step {p:?}: expected t<id> or r<index>"));
            (letter, value)
        })
        .collect()
}
