//! Model-aware threads: `spawn`/`yield_now`/`sleep` plus a scoped-spawn API
//! shaped exactly like `std::thread::scope`, so the sync facades can swap it
//! in without touching call sites.
//!
//! Inside a [`crate::model`] execution, spawned threads are real OS threads
//! registered with the scheduler: they run under the execution token, their
//! spawn/join edges carry vector-clock synchronization, and `yield_now`
//! deschedules the caller until another thread makes progress. Outside a
//! model everything delegates to `std`.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

use crate::rt;

/// Model-aware `std::thread::yield_now`.
pub fn yield_now() {
    rt::yield_now();
}

/// Model-aware sleep: inside a model, sleeping is indistinguishable from
/// yielding (the scheduler owns time); outside, a real sleep.
pub fn sleep(dur: std::time::Duration) {
    if rt::in_model() {
        rt::yield_now();
    } else {
        std::thread::sleep(dur);
    }
}

/// Join handle of a [`spawn`]ed thread.
pub struct JoinHandle<T> {
    inner: std::thread::JoinHandle<T>,
    tid: Option<usize>,
}

impl<T> JoinHandle<T> {
    /// Waits for the thread to finish, returning its result.
    ///
    /// # Errors
    ///
    /// Returns the thread's panic payload if it panicked.
    pub fn join(self) -> std::thread::Result<T> {
        if let (Some(tid), Some(ctx)) = (self.tid, rt::current()) {
            rt::block_on_children(&ctx, &[tid]);
        }
        self.inner.join()
    }
}

/// Model-aware `std::thread::spawn`. Inside a model the new thread is a
/// scheduled model thread; it must be joined before the model closure
/// returns (enforced by the checker).
pub fn spawn<F, T>(f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    match rt::current() {
        None => JoinHandle {
            inner: std::thread::spawn(f),
            tid: None,
        },
        Some(ctx) => {
            let tid = rt::register_child(&ctx);
            let exec = Arc::clone(&ctx.exec);
            JoinHandle {
                inner: std::thread::spawn(move || rt::run_child(exec, tid, f)),
                tid: Some(tid),
            }
        }
    }
}

/// Model bookkeeping shared by a scope and every handle it spawns.
struct ScopeModel {
    exec: Arc<rt::Execution>,
    children: Mutex<Vec<usize>>,
}

/// Handle passed to the [`scope`] closure (std's shape).
pub struct Scope<'scope, 'env: 'scope> {
    inner: &'scope std::thread::Scope<'scope, 'env>,
    model: Option<Arc<ScopeModel>>,
}

/// Join handle of a scoped thread.
pub struct ScopedJoinHandle<'scope, T> {
    inner: std::thread::ScopedJoinHandle<'scope, T>,
    tid: Option<usize>,
}

impl<T> ScopedJoinHandle<'_, T> {
    /// Waits for the thread to finish, returning its result.
    ///
    /// # Errors
    ///
    /// Returns the thread's panic payload if it panicked.
    pub fn join(self) -> std::thread::Result<T> {
        if let (Some(tid), Some(ctx)) = (self.tid, rt::current()) {
            rt::block_on_children(&ctx, &[tid]);
        }
        self.inner.join()
    }
}

impl<'scope> Scope<'scope, '_> {
    /// Spawns a scoped thread running `f` (std's signature).
    pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
    where
        F: FnOnce() -> T + Send + 'scope,
        T: Send + 'scope,
    {
        match &self.model {
            None => ScopedJoinHandle {
                inner: self.inner.spawn(f),
                tid: None,
            },
            Some(model) => {
                let ctx =
                    rt::current().expect("scoped spawn on a model scope from outside the model");
                let tid = rt::register_child(&ctx);
                model
                    .children
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(tid);
                let exec = Arc::clone(&model.exec);
                ScopedJoinHandle {
                    inner: self.inner.spawn(move || rt::run_child(exec, tid, f)),
                    tid: Some(tid),
                }
            }
        }
    }
}

/// Creates a scope for spawning scoped threads, waiting for all of them
/// before returning (std's signature: a child that panicked and was not
/// joined makes the scope panic).
///
/// Inside a model, the scope blocks on its children *through the scheduler*
/// (a join-synchronization edge per child) before `std`'s implicit join, and
/// a panicking closure aborts the execution so children tear down instead of
/// deadlocking on the schedule token.
pub fn scope<'env, F, R>(f: F) -> R
where
    F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
{
    match rt::current() {
        None => std::thread::scope(|s| {
            f(&Scope {
                inner: s,
                model: None,
            })
        }),
        Some(ctx) => {
            let model = Arc::new(ScopeModel {
                exec: Arc::clone(&ctx.exec),
                children: Mutex::new(Vec::new()),
            });
            std::thread::scope(|s| {
                let scope_ref = Scope {
                    inner: s,
                    model: Some(Arc::clone(&model)),
                };
                let result = catch_unwind(AssertUnwindSafe(|| f(&scope_ref)));
                match result {
                    Ok(r) => {
                        // Join children before std's implicit join, which
                        // knows nothing of the token.
                        let children = model
                            .children
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .clone();
                        rt::block_on_children(&ctx, &children);
                        r
                    }
                    Err(payload) => {
                        rt::abort_execution(&ctx.exec);
                        resume_unwind(payload);
                    }
                }
            })
        }
    }
}
