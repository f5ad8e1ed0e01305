//@ label: crates/core/src/fixture.rs
// Known-bad snippet for the unwind-boundary audit: an unhandled boundary
// and an unregistered typed payload.

pub struct StrayPanic; //~ unregistered-payload

fn swallows_typed_payloads() -> u32 {
    let r = std::panic::catch_unwind(|| work()); //~ missing-downcast
    match r {
        Ok(v) => v,
        Err(_) => 0,
    }
}

fn wrong_payload_boundary() -> u32 {
    let r = std::panic::catch_unwind(|| work()); //~ missing-downcast
    match r {
        Ok(v) => v,
        Err(p) => {
            if p.downcast_ref::<StrayPanic>().is_some() {
                return 1;
            }
            0
        }
    }
}
