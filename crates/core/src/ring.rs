//! Fixed-capacity reserve/commit ring for SAIF dump messages.
//!
//! The seed engine streamed finished (signal, window) waveforms to the
//! asynchronous SAIF dumper over an unbounded channel, which heap-allocates
//! per message — one allocation per (gate, window) thread, squarely on the
//! hot path. This ring is allocated once per window batch and then pushes
//! and pops without touching the allocator.
//!
//! Concurrency contract: *multiple* producers, exactly one consumer. The
//! engine publishes a level from one thread at a time (the engine thread,
//! or a fused launch's leader worker), but the protocol does not rely on
//! it: [`DumpRing::push_slice`] reserves ring space **once per chunk**
//! (one `fetch_add` on the reservation cursor) instead of once per
//! message, writes its slots, and then commits in reservation order so the
//! consumer only ever reads fully written slots. The single-message
//! [`DumpRing::push`] is the degenerate one-element slice.

use crate::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

use gatspi_wave::SimTime;

/// One finished (signal, window) waveform headed for the SAIF dumper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DumpMsg {
    /// Signal index.
    pub signal: u32,
    /// Word offset of the stored waveform in device memory.
    pub ptr: u32,
    /// Window length: the scan clips at this time.
    pub clip: SimTime,
}

impl DumpMsg {
    /// Placeholder for chunk buffers awaiting real messages (never popped:
    /// slots are committed only after being overwritten).
    pub const EMPTY: DumpMsg = DumpMsg {
        signal: 0,
        ptr: 0,
        clip: 0,
    };
}

/// Typed panic payload raised by a producer when the dump consumer (the
/// SAIF scan) has died and its messages can never be delivered. The session
/// layer catches it at the segment boundary and surfaces
/// `CoreError::SinkClosed` instead of unwinding the process.
#[derive(Debug, Clone)]
pub(crate) struct SinkClosedPanic {
    /// Human-readable detail (which wait detected the dead consumer).
    pub detail: String,
}

/// Bounded multi-producer/single-consumer queue of [`DumpMsg`] with
/// reserve/commit batching and spin-yield backpressure.
#[derive(Debug)]
pub(crate) struct DumpRing {
    /// `(signal << 32) | ptr` per slot.
    sig_ptr: Vec<AtomicU64>,
    /// `clip` per slot (as `u32` bits).
    clip: Vec<AtomicU64>,
    mask: usize,
    /// Reservation cursor (total slots handed out to producers). A chunk
    /// reserves its whole slot range with one `fetch_add` here.
    reserve: AtomicUsize,
    /// Publish cursor (total committed pushes): slots below it are fully
    /// written and visible to the consumer. Chunks commit in reservation
    /// order.
    tail: AtomicUsize,
    /// Consumer cursor (total pops).
    head: AtomicUsize,
    closed: AtomicBool,
    /// Set when the consumer thread exits (normally or by panic); lets a
    /// full-ring `push` fail loudly instead of waiting forever on a
    /// consumer that will never drain it.
    consumer_gone: AtomicBool,
    /// Total nanoseconds producers spent waiting on a full ring —
    /// backpressure from a SAIF scanner that cannot keep up. Surfaced as
    /// `AppPhaseProfile::dump_stall_seconds` so dump-bound runs are visible.
    stall_nanos: AtomicU64,
}

/// RAII marker held by the consumer thread; flags the ring on drop — which
/// includes unwinding out of a panicking SAIF scan.
#[derive(Debug)]
pub(crate) struct ConsumerGuard<'a>(&'a DumpRing);

impl Drop for ConsumerGuard<'_> {
    fn drop(&mut self) {
        self.0.consumer_gone.store(true, Ordering::Release);
    }
}

/// RAII marker held by the producer side; closes the ring on drop — which
/// includes unwinding out of a panicking engine batch.
#[derive(Debug)]
pub(crate) struct ProducerGuard<'a>(&'a DumpRing);

impl Drop for ProducerGuard<'_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

impl DumpRing {
    /// Creates a ring holding at least `capacity` messages (rounded up to a
    /// power of two, minimum 2).
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        let mut sig_ptr = Vec::with_capacity(cap);
        let mut clip = Vec::with_capacity(cap);
        sig_ptr.resize_with(cap, || AtomicU64::new(0));
        clip.resize_with(cap, || AtomicU64::new(0));
        DumpRing {
            sig_ptr,
            clip,
            mask: cap - 1,
            reserve: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            head: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            consumer_gone: AtomicBool::new(false),
            stall_nanos: AtomicU64::new(0),
        }
    }

    /// Registers the calling thread as the consumer; keep the guard alive
    /// for the whole pop loop.
    pub fn consumer_guard(&self) -> ConsumerGuard<'_> {
        ConsumerGuard(self)
    }

    /// RAII closer for the producer side: closing on drop guarantees the
    /// consumer's `pop` loop terminates even when the producer unwinds
    /// mid-batch (a panicking engine must not leave the dumper spinning on
    /// an open, empty ring). The explicit [`DumpRing::close`] remains for
    /// the normal path; closing twice is harmless.
    pub fn producer_guard(&self) -> ProducerGuard<'_> {
        ProducerGuard(self)
    }

    /// Enqueues one message (the one-element [`DumpRing::push_slice`]).
    ///
    /// # Panics
    ///
    /// As [`DumpRing::push_slice`].
    #[cfg(test)]
    pub fn push(&self, msg: DumpMsg) {
        self.push_slice(std::slice::from_ref(&msg));
    }

    /// Enqueues a whole chunk with a single ring-space reservation: one
    /// `fetch_add` claims `msgs.len()` consecutive slots, the slots are
    /// written, and the chunk commits once the publish cursor reaches its
    /// reservation (in-order commit keeps the consumer single-cursor).
    /// Waits (yield, then short sleeps) while the ring lacks space.
    ///
    /// # Panics
    ///
    /// Panics if `msgs` exceeds the ring capacity (it could never fit), or
    /// if the consumer thread has terminated while the ring lacks space —
    /// the messages can never be delivered, and propagating beats hanging
    /// the engine.
    pub fn push_slice(&self, msgs: &[DumpMsg]) {
        let n = msgs.len();
        if n == 0 {
            return;
        }
        let cap = self.mask + 1;
        assert!(
            n <= cap,
            "chunk of {n} messages exceeds ring capacity {cap}"
        );
        // relaxed-ok: the reservation cursor only partitions slot indices
        // among producers (each chunk gets a unique, contiguous range); the
        // consumer never reads it. Visibility of the slot contents rides the
        // in-order commit's `tail` Release below (model test
        // `consumer_never_reads_uncommitted_slots`).
        let start = self.reserve.fetch_add(n, Ordering::Relaxed);
        if start + n - self.head.load(Ordering::Acquire) > cap {
            // Full: measure the backpressure stall (timer only on the slow
            // path, so the common uncontended push stays clock-free).
            let t0 = std::time::Instant::now();
            let mut spins = 0u32;
            while start + n - self.head.load(Ordering::Acquire) > cap {
                if self.consumer_gone.load(Ordering::Acquire) {
                    std::panic::panic_any(SinkClosedPanic {
                        detail: "SAIF dumper terminated with the ring full".into(),
                    });
                }
                backoff(&mut spins);
            }
            // relaxed-ok: backpressure telemetry, read only for reports.
            self.stall_nanos
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        for (k, msg) in msgs.iter().enumerate() {
            let i = (start + k) & self.mask;
            // relaxed-ok: slot writes are published to the consumer by the
            // `tail` Release store below (in-order commit), and ordered
            // against the consumer's previous read of a recycled slot by the
            // `head` Acquire load above. Weakening the commit to Relaxed is
            // caught by model test `consumer_never_reads_uncommitted_slots`.
            self.sig_ptr[i].store(
                (u64::from(msg.signal) << 32) | u64::from(msg.ptr),
                Ordering::Relaxed,
            );
            // relaxed-ok: see above.
            self.clip[i].store(u64::from(msg.clip as u32), Ordering::Relaxed);
        }
        // In-order commit: wait for every earlier reservation to publish,
        // then advance the cursor over this chunk in one step.
        let mut spins = 0u32;
        while self.tail.load(Ordering::Acquire) != start {
            if self.consumer_gone.load(Ordering::Acquire) {
                std::panic::panic_any(SinkClosedPanic {
                    detail: "SAIF dumper terminated with commits outstanding".into(),
                });
            }
            backoff(&mut spins);
        }
        // anchor: ring-commit-store
        // pairs-with: crates/core/src/ring.rs:ring-consume-load
        self.tail.store(start + n, Ordering::Release);
    }

    /// Dequeues the next message, blocking until one arrives; returns
    /// `None` once the ring is closed and drained. An empty ring is waited
    /// on with a few yields and then short sleeps, so an idle dumper does
    /// not burn a core while a long kernel level runs.
    pub fn pop(&self) -> Option<DumpMsg> {
        let head = self.head.load(Ordering::Acquire);
        let mut spins = 0u32;
        loop {
            // anchor: ring-consume-load
            // pairs-with: crates/core/src/ring.rs:ring-commit-store
            if self.tail.load(Ordering::Acquire) != head {
                break;
            }
            if self.closed.load(Ordering::Acquire) && self.tail.load(Ordering::Acquire) == head {
                return None;
            }
            backoff(&mut spins);
        }
        let i = head & self.mask;
        // relaxed-ok: the `tail` Acquire load above synchronized with the
        // producer's commit Release, which happens-after the slot writes —
        // so these reads see the committed contents without extra ordering.
        let sp = self.sig_ptr[i].load(Ordering::Relaxed);
        // relaxed-ok: see above.
        let clip = self.clip[i].load(Ordering::Relaxed) as u32 as SimTime;
        self.head.store(head + 1, Ordering::Release);
        Some(DumpMsg {
            signal: (sp >> 32) as u32,
            ptr: sp as u32,
            clip,
        })
    }

    /// Marks the producer side finished; `pop` returns `None` after the
    /// remaining messages drain.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
    }

    /// Total seconds producers have spent stalled on a full ring.
    pub fn producer_stall_seconds(&self) -> f64 {
        // relaxed-ok: telemetry read, no payload depends on it.
        self.stall_nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }
}

/// Wait strategy for an empty/full ring: yield for the first iterations
/// (message gaps are usually short), then sleep in 50µs slices so a long
/// wait costs near-zero CPU.
fn backoff(spins: &mut u32) {
    if *spins < 64 {
        *spins += 1;
        crate::sync::thread::yield_now();
    } else {
        crate::sync::thread::sleep(std::time::Duration::from_micros(50));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_preserved() {
        let ring = DumpRing::with_capacity(4);
        for k in 0..3u32 {
            ring.push(DumpMsg {
                signal: k,
                ptr: 10 * k,
                clip: k as SimTime,
            });
        }
        ring.close();
        for k in 0..3u32 {
            assert_eq!(
                ring.pop(),
                Some(DumpMsg {
                    signal: k,
                    ptr: 10 * k,
                    clip: k as SimTime
                })
            );
        }
        assert_eq!(ring.pop(), None);
    }

    #[test]
    fn backpressure_and_concurrency() {
        // Tiny ring forces the producer to wait on the consumer; all
        // messages must arrive intact and in order.
        let ring = DumpRing::with_capacity(2);
        let n = 10_000u32;
        std::thread::scope(|s| {
            s.spawn(|| {
                for k in 0..n {
                    ring.push(DumpMsg {
                        signal: k,
                        ptr: k ^ 0xABCD,
                        clip: (k % 1000) as SimTime,
                    });
                }
                ring.close();
            });
            let mut expected = 0u32;
            while let Some(m) = ring.pop() {
                assert_eq!(m.signal, expected);
                assert_eq!(m.ptr, expected ^ 0xABCD);
                expected += 1;
            }
            assert_eq!(expected, n);
        });
        // 10k pushes through a 2-slot ring cannot avoid full-ring waits;
        // the backpressure telemetry must have registered them.
        assert!(
            ring.producer_stall_seconds() > 0.0,
            "stall time must be recorded under backpressure"
        );
    }

    #[test]
    fn batched_chunks_from_many_producers_arrive_intact() {
        // 4 producers × 1000 messages in chunks of 16 through a ring
        // smaller than the total: every message must arrive exactly once.
        let ring = DumpRing::with_capacity(64);
        let producers = 4u32;
        let per = 1000u32;
        let mut seen = vec![0u32; (producers * per) as usize];
        std::thread::scope(|s| {
            let ring = &ring;
            let handle = s.spawn(move || {
                let mut got = Vec::new();
                while let Some(m) = ring.pop() {
                    got.push(m);
                }
                got
            });
            std::thread::scope(|inner| {
                for p in 0..producers {
                    inner.spawn(move || {
                        let mut chunk = [DumpMsg::EMPTY; 16];
                        let mut n = 0;
                        for k in 0..per {
                            chunk[n] = DumpMsg {
                                signal: p * per + k,
                                ptr: (p * per + k) ^ 0x5A5A,
                                clip: 7,
                            };
                            n += 1;
                            if n == chunk.len() {
                                ring.push_slice(&chunk);
                                n = 0;
                            }
                        }
                        ring.push_slice(&chunk[..n]);
                    });
                }
            });
            ring.close();
            for m in handle.join().unwrap() {
                assert_eq!(m.ptr, m.signal ^ 0x5A5A, "slot contents intact");
                assert_eq!(m.clip, 7);
                seen[m.signal as usize] += 1;
            }
        });
        assert!(
            seen.iter().all(|&c| c == 1),
            "every message delivered exactly once"
        );
    }

    #[test]
    fn empty_slice_push_is_noop() {
        let ring = DumpRing::with_capacity(2);
        ring.push_slice(&[]);
        ring.close();
        assert_eq!(ring.pop(), None);
    }

    #[test]
    #[should_panic(expected = "exceeds ring capacity")]
    fn oversized_chunk_rejected() {
        let ring = DumpRing::with_capacity(2);
        let msgs = [DumpMsg::EMPTY; 3];
        ring.push_slice(&msgs);
    }

    #[test]
    fn uncontended_pushes_record_no_stall() {
        let ring = DumpRing::with_capacity(16);
        for k in 0..8u32 {
            ring.push(DumpMsg {
                signal: k,
                ptr: k,
                clip: 1,
            });
        }
        assert_eq!(ring.producer_stall_seconds(), 0.0);
    }

    #[test]
    fn push_panics_when_consumer_dies_with_ring_full() {
        let ring = DumpRing::with_capacity(2);
        drop(ring.consumer_guard()); // consumer came and went
        let msg = DumpMsg {
            signal: 1,
            ptr: 2,
            clip: 3,
        };
        ring.push(msg);
        ring.push(msg);
        // Ring full, consumer dead: must fail loudly, not hang.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ring.push(msg)));
        assert!(result.is_err(), "push must panic on a dead consumer");
    }

    #[test]
    fn producer_guard_closes_on_drop() {
        let ring = DumpRing::with_capacity(4);
        {
            let _closer = ring.producer_guard();
        }
        assert_eq!(ring.pop(), None, "dropped guard must close the ring");
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        let ring = DumpRing::with_capacity(5);
        assert_eq!(ring.mask + 1, 8);
        let ring = DumpRing::with_capacity(0);
        assert_eq!(ring.mask + 1, 2);
    }
}

/// Randomized edge cases around the ring's wrap and RAII teardown paths.
#[cfg(test)]
mod edge_tests {
    use super::*;

    #[test]
    fn wraparound_at_exact_capacity() {
        // Fill to exactly the capacity, drain, and repeat: the cursors
        // cross the mask boundary every round, so slot reuse at the exact
        // wrap point must stay FIFO and intact.
        let ring = DumpRing::with_capacity(4);
        assert_eq!(ring.mask + 1, 4);
        for round in 0..3u32 {
            for k in 0..4u32 {
                let v = round * 4 + k;
                ring.push(DumpMsg {
                    signal: v,
                    ptr: v ^ 0x33,
                    clip: 1,
                });
            }
            for k in 0..4u32 {
                let m = ring.pop().expect("full ring drains");
                assert_eq!(m.signal, round * 4 + k);
                assert_eq!(m.ptr, m.signal ^ 0x33);
            }
        }
        ring.close();
        assert_eq!(ring.pop(), None);
    }

    #[test]
    fn push_slice_larger_than_remaining_space_waits_for_drain() {
        // 3 of 4 slots full, then a 3-slot chunk: it cannot fit until the
        // consumer drains, so the producer must block and then deliver the
        // chunk intact — never overwrite undrained slots.
        let ring = DumpRing::with_capacity(4);
        for k in 0..3u32 {
            ring.push(DumpMsg {
                signal: k,
                ptr: k,
                clip: 0,
            });
        }
        std::thread::scope(|s| {
            s.spawn(|| {
                let chunk: Vec<DumpMsg> = (3..6u32)
                    .map(|k| DumpMsg {
                        signal: k,
                        ptr: k,
                        clip: 0,
                    })
                    .collect();
                ring.push_slice(&chunk);
                ring.close();
            });
            for k in 0..6u32 {
                let m = ring.pop().expect("all six must arrive");
                assert_eq!(m.signal, k, "order preserved across the blocked chunk");
            }
            assert_eq!(ring.pop(), None);
        });
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 64,
            .. proptest::prelude::ProptestConfig::default()
        })]

        /// Dropping the producer guard mid-batch (an unwinding engine)
        /// must close the ring so the consumer drains exactly the
        /// committed messages and terminates.
        #[test]
        fn producer_guard_drop_mid_batch_releases_consumer(
            cap in 0usize..33,
            n in 0usize..20,
        ) {
            use proptest::prelude::{prop_assert, prop_assert_eq};
            let ring = DumpRing::with_capacity(cap);
            let fits = n.min(ring.mask + 1);
            {
                let _open = ring.producer_guard();
                for k in 0..fits as u32 {
                    ring.push(DumpMsg { signal: k, ptr: k ^ 0x77, clip: 2 });
                }
                // Guard drops here: the batch unwound mid-stream.
            }
            let _consumer = ring.consumer_guard();
            for k in 0..fits as u32 {
                let m = ring.pop();
                prop_assert!(m.is_some(), "committed messages must drain");
                let m = m.unwrap();
                prop_assert_eq!(m.signal, k);
                prop_assert_eq!(m.ptr, k ^ 0x77);
            }
            prop_assert_eq!(ring.pop(), None);
        }

        /// Dropping the consumer guard mid-batch (a panicking SAIF scan)
        /// must make a full-ring push fail loudly instead of hanging.
        #[test]
        fn consumer_guard_drop_mid_batch_fails_blocked_producers(
            cap_sel in 0usize..9,
            drained_sel in 0usize..4,
        ) {
            use proptest::prelude::{prop_assert, prop_assert_eq};
            let ring = DumpRing::with_capacity(cap_sel);
            let cap = ring.mask + 1;
            for k in 0..cap as u32 {
                ring.push(DumpMsg { signal: k, ptr: k, clip: 0 });
            }
            let drained = drained_sel.min(cap);
            {
                let _consumer = ring.consumer_guard();
                for k in 0..drained as u32 {
                    prop_assert_eq!(ring.pop().map(|m| m.signal), Some(k));
                }
                // Guard drops here: the scan panicked mid-batch.
            }
            // Refill to exactly full (no wait), then one more push can
            // never be delivered: it must panic, not spin forever.
            for k in 0..drained as u32 {
                ring.push(DumpMsg { signal: 100 + k, ptr: 0, clip: 0 });
            }
            let blocked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                ring.push(DumpMsg { signal: 999, ptr: 0, clip: 0 });
            }));
            prop_assert!(blocked.is_err(), "push must panic on a dead consumer");
        }
    }
}

/// Exhaustive interleaving tests on the loom model types
/// (`cargo test --features model-check`). A failure prints a
/// `replay schedule: <string>` line for deterministic re-execution.
#[cfg(all(test, feature = "model-check"))]
mod model_tests {
    use super::*;

    /// The MPSC reserve/commit invariant: the consumer must never observe
    /// a slot whose producer has not committed it, in any interleaving of
    /// two concurrent producers and the consumer. Weakening the commit
    /// `tail.store(start + n, Release)` in [`DumpRing::push_slice`] to
    /// `Relaxed` fails this test: the consumer reads a torn or empty slot.
    #[test]
    fn consumer_never_reads_uncommitted_slots() {
        loom::model(|| {
            let ring = DumpRing::with_capacity(2);
            crate::sync::thread::scope(|s| {
                for p in 1..=2u32 {
                    let ring = &ring;
                    s.spawn(move |_| {
                        ring.push(DumpMsg {
                            signal: p,
                            ptr: p ^ 0xA,
                            clip: p as SimTime,
                        });
                    });
                }
                let mut seen = [false; 3];
                for _ in 0..2 {
                    let m = ring.pop().expect("two messages were pushed");
                    assert!((1..=2).contains(&m.signal), "uncommitted slot read: {m:?}");
                    assert_eq!(m.ptr, m.signal ^ 0xA, "slot torn");
                    assert_eq!(m.clip, m.signal as SimTime, "slot torn");
                    assert!(!seen[m.signal as usize], "duplicate delivery");
                    seen[m.signal as usize] = true;
                }
            })
            .expect("model producer panicked");
        });
    }

    /// Close/drain hand-off: a producer pushing then closing, concurrent
    /// with the consumer, must deliver the message exactly once and then
    /// terminate the pop loop — no lost wakeup in any schedule.
    #[test]
    fn close_never_loses_the_last_message() {
        loom::model(|| {
            let ring = DumpRing::with_capacity(2);
            crate::sync::thread::scope(|s| {
                let r = &ring;
                s.spawn(move |_| {
                    r.push(DumpMsg {
                        signal: 5,
                        ptr: 6,
                        clip: 7,
                    });
                    r.close();
                });
                let m = ring.pop().expect("message must survive the close");
                assert_eq!((m.signal, m.ptr, m.clip), (5, 6, 7));
                assert_eq!(ring.pop(), None, "drained ring must report closed");
            })
            .expect("model producer panicked");
        });
    }
}
