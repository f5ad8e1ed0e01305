//@ label: crates/core/src/fixture.rs
// Known-good snippet: a justified Relaxed, a documented unsafe, and test
// code, which may use Relaxed without a reason.

use std::sync::atomic::{AtomicU32, Ordering};

fn justified(head: &AtomicU32) -> u32 {
    // relaxed-ok: single-consumer cursor, no payload rides this load.
    head.load(Ordering::Relaxed)
}

fn documented(p: *const u32) -> u32 {
    // SAFETY: p is valid for reads; the caller checked alignment above.
    unsafe { *p }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn tests_may_relax_without_a_reason() {
        let n = AtomicU32::new(1);
        assert_eq!(n.load(Ordering::Relaxed), 1);
    }
}
