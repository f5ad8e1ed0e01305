//@ label: crates/core/src/fixture.rs
// Known-good snippet: the four sanctioned boundary shapes — classifier
// call, rethrow helper, full inline downcast, and `unwind-ok:` annotation.

fn via_classifier(dev: usize) -> Result<u32, CoreError> {
    std::panic::catch_unwind(|| work()).map_err(|p| panic_to_error(dev, p))
}

fn via_rethrow() -> u32 {
    match std::panic::catch_unwind(|| work()) {
        Ok(v) => v,
        Err(p) => std::panic::resume_unwind(p),
    }
}

fn inline_total() -> u32 {
    match std::panic::catch_unwind(|| work()) {
        Ok(v) => v,
        Err(p) => {
            if p.downcast_ref::<DeviceFaultPanic>().is_some() {
                return 1;
            }
            0
        }
    }
}

fn deferred() -> u32 {
    // unwind-ok: payload is stashed and re-raised by the caller after the
    // worker scope joins.
    let r = std::panic::catch_unwind(|| work());
    stash(r)
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_boundaries_are_exempt() {
        let _ = std::panic::catch_unwind(|| 1 + 1);
    }
}
