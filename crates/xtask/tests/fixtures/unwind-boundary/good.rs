//@ label: crates/core/src/fixture.rs
// Known-good snippet: the boundary shapes the checked-in manifest
// sanctions — classifier call, rethrow helper, and `unwind-ok:`
// annotation. (A full inline downcast also counts while payloads are
// registered; the pass's unit tests cover it.)

fn via_classifier(dev: usize) -> Result<u32, CoreError> {
    std::panic::catch_unwind(|| work()).map_err(|p| panic_to_error(dev, p))
}

fn via_rethrow() -> u32 {
    match std::panic::catch_unwind(|| work()) {
        Ok(v) => v,
        Err(p) => std::panic::resume_unwind(p),
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
