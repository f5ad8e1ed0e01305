//@ label: crates/core/src/fixture.rs
// Known-bad snippet: an unjustified Relaxed and an undocumented unsafe.

use std::sync::atomic::{AtomicU32, Ordering};

fn underjustified(head: &AtomicU32) -> u32 {
    head.load(Ordering::Relaxed) //~ relaxed
}

fn undocumented(p: *const u32) -> u32 {
    unsafe { *p } //~ safety
}
