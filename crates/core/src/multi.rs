//! Multi-GPU orchestration: the paper's cycle-parallel workload
//! distribution (§5, Fig. 6) on top of the session's segment driver.
//!
//! [`Session::run_multi_gpu`] shards the windows evenly across the fleet and
//! runs every shard through the same `execute_segment` as a single-device
//! run — same plan cache, same retry boundary, same level loop — so the
//! single-device equivalence guarantees hold per device. What lives here
//! is only what a fleet adds: the concurrent shard fan-out, the
//! in-window-order drain and merge, and failover of a dead device's shards
//! onto the survivors ([`ShardQueue`], the reorder buffer and its replay).

use std::time::Instant;

use gatspi_gpu::MultiGpu;
use gatspi_wave::saif::SaifDocument;
use gatspi_wave::{SimTime, Waveform, EOW};

use crate::session::{RetryTelemetry, RunOptions, RunTotals, SegmentInputs, Session, WindowBatch};
use crate::sink::{SaifSink, SpillSink, VcdSink, WaveformSink, WindowInfo};
use crate::sync::atomic::{AtomicUsize, Ordering};
use crate::{CoreError, Result, SimResult};

/// Failover work queue: the window sub-ranges a dead device left behind,
/// claimed by survivor threads through a single atomic cursor. Each
/// `claim` hands out a distinct range (or `None` once the queue is dry),
/// so a range is re-executed by exactly one survivor — model test
/// `failover_ranges_claimed_exactly_once` explores the handoff.
struct ShardQueue {
    /// Absolute `(start_window, count)` ranges, immutable once built.
    ranges: Vec<(usize, usize)>,
    /// Next unclaimed index.
    next: AtomicUsize,
}

impl ShardQueue {
    fn new(ranges: Vec<(usize, usize)>) -> Self {
        ShardQueue {
            ranges,
            next: AtomicUsize::new(0),
        }
    }

    fn claim(&self) -> Option<(usize, usize)> {
        // relaxed-ok: the cursor only partitions immutable ranges among
        // claimants — each fetch_add returns a unique index, and the
        // ranges vector itself is published by the thread spawn.
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        self.ranges.get(i).copied()
    }
}

impl Session {
    /// Replays a reorder buffer's windows `[from_window, ..)` to `sink` in
    /// ascending (window, signal) order — the exact stream a fault-free
    /// multi-GPU run would have produced from `from_window` on, with each
    /// window's segment attributed to the shard that owned it.
    fn replay_spill(
        &self,
        buf: &SpillSink,
        shards: &[(usize, usize)],
        from_window: usize,
        sink: &mut dyn WaveformSink,
    ) {
        let n_signals = self.graph().n_signals();
        let mut segment = 0usize;
        for w in from_window..buf.windows.len() {
            while {
                let (s, c) = shards[segment];
                c == 0 || w >= s + c
            } {
                segment += 1;
            }
            let (start, end) = buf.windows[w];
            let info = WindowInfo {
                window: w,
                segment,
                start,
                end,
            };
            for s in 0..n_signals {
                let ptr = buf.ptrs[w * n_signals + s];
                if ptr == u64::MAX {
                    continue;
                }
                // The spill stores each waveform's live words, terminated
                // at its EOW — exactly what a direct drain would have let
                // the sink read (ghost words past EOW are never decoded).
                let raw = buf.slice_from(ptr);
                let len = raw
                    .iter()
                    .position(|&x| x == EOW)
                    .map_or(raw.len(), |e| e + 1);
                sink.waveform(s, &info, &raw[..len]);
            }
        }
    }

    /// Runs the simulation across `gpus`: cycle parallelism is set to
    /// `cycle_parallelism × n` and every device independently simulates
    /// its share of windows (no inter-device communication — the known
    /// sequential-element waveforms make windows fully independent, so
    /// kernel time follows `t = t₁/n + ovr`).
    ///
    /// The launch plan is built **once** per distinct shard window count —
    /// with even shards, exactly once for the whole run — and shared
    /// read-only across the devices, instead of each shard re-walking the
    /// graph.
    ///
    /// The merged result reports: modeled kernel time = slowest device
    /// (they run concurrently), wall time = measured, SAIF/toggles = exact
    /// sums. Without waveform spill, extraction is not supported on
    /// multi-GPU results; see [`Session::run_multi_gpu_with`].
    ///
    /// # Errors
    ///
    /// As [`Session::run`]; additionally propagates the first per-device
    /// error.
    pub fn run_multi_gpu(
        &self,
        gpus: &MultiGpu,
        stimuli: &[Waveform],
        duration: SimTime,
    ) -> Result<SimResult> {
        self.run_multi_gpu_with(gpus, stimuli, duration, &RunOptions::default())
    }

    /// [`Session::run_multi_gpu`] with explicit [`RunOptions`].
    ///
    /// [`RunOptions::spill_waveforms`] routes every shard's finished
    /// batch through the host spill sink — shards cover contiguous window
    /// ranges, so draining them in device order merges the windows in
    /// time order — making [`SimResult::waveform`] work on multi-GPU
    /// results exactly as on segmented single-device runs.
    /// [`RunOptions::segment_windows`] is ignored (sharding already fixes
    /// each device's window count).
    ///
    /// # Errors
    ///
    /// As [`Session::run_multi_gpu`].
    pub fn run_multi_gpu_with(
        &self,
        gpus: &MultiGpu,
        stimuli: &[Waveform],
        duration: SimTime,
        opts: &RunOptions,
    ) -> Result<SimResult> {
        self.run_multi_gpu_inner(gpus, stimuli, duration, opts, None)
    }

    /// Streaming multi-GPU run: every shard's finished waveforms are
    /// drained through `sink` in device order — shards cover contiguous
    /// window ranges, so the sink observes windows in ascending
    /// absolute-time order, exactly like a segmented single-device
    /// [`Session::run_streaming`].
    ///
    /// # Errors
    ///
    /// As [`Session::run_multi_gpu`].
    pub fn run_multi_gpu_streaming(
        &self,
        gpus: &MultiGpu,
        stimuli: &[Waveform],
        duration: SimTime,
        opts: &RunOptions,
        sink: &mut dyn WaveformSink,
    ) -> Result<SimResult> {
        self.run_multi_gpu_inner(gpus, stimuli, duration, opts, Some(sink))
    }

    /// Runs one round of shards concurrently: one thread per device in
    /// `devices`, each executing the window range `claim` hands it (if any)
    /// as one segment of the shared driver. A shard thread catches and
    /// retries its own device's faults (bounded by the session's
    /// `RetryPolicy`), so a fault never crosses the scope join as a raw
    /// panic: each outcome is a finished batch or the structured error that
    /// survived the retries. Shard threads deliver nothing themselves —
    /// the caller feeds the sinks in window order. Outcomes come back in
    /// `devices` order as `(device, start, count, outcome)`.
    fn run_round(
        &self,
        gpus: &MultiGpu,
        telemetry: &RetryTelemetry,
        inputs: &SegmentInputs<'_>,
        devices: &[usize],
        claim: impl Fn(usize) -> Option<(usize, usize)> + Sync,
    ) -> Vec<(usize, usize, usize, Result<WindowBatch>)> {
        let mut round = Vec::with_capacity(devices.len());
        crate::sync::thread::scope(|s| {
            let claim = &claim;
            let handles: Vec<_> = devices
                .iter()
                .map(|&d| {
                    s.spawn(move |_| {
                        claim(d).map(|(start, count)| {
                            let range = start..start + count;
                            let outcome = self
                                .execute_segment(
                                    gpus.device(d),
                                    d,
                                    telemetry,
                                    inputs,
                                    range,
                                    d,
                                    &mut [],
                                )
                                .map(|(batch, _, _)| batch);
                            (d, start, count, outcome)
                        })
                    })
                })
                .collect();
            // Explicit joins: a panic that somehow escapes a shard thread
            // (a bug — the segment boundary catches faults) must surface
            // with its payload, not a generic scope message.
            for h in handles {
                match h.join() {
                    Ok(item) => round.extend(item),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        })
        // panic-ok: scope join — re-raises a shard thread's panic.
        .expect("multi-gpu scope panicked");
        round
    }

    /// The multi-GPU engine: shard, execute concurrently, merge in device
    /// (= time) order, routing drained waveforms through the spill and/or
    /// a caller sink.
    fn run_multi_gpu_inner(
        &self,
        gpus: &MultiGpu,
        stimuli: &[Waveform],
        duration: SimTime,
        opts: &RunOptions,
        mut user_sink: Option<&mut dyn WaveformSink>,
    ) -> Result<SimResult> {
        let t_app = Instant::now();
        self.check_run_inputs(stimuli, duration)?;
        let slots = self.config().cycle_parallelism * gpus.len();
        let windows = self.make_windows(duration, slots);
        let shards = gatspi_gpu::shard_slots(windows.len(), gpus.len());

        let t0 = Instant::now();
        // Host-side restructuring is shared across devices.
        let win_stims = self.restructure(stimuli, &windows);
        let restructure_seconds = t0.elapsed().as_secs_f64();

        // One plan per distinct shard size, resolved through the session
        // cache *before* the devices fan out (deterministic build count,
        // shared read-only across the fleet — failover re-execution hits
        // the same cache entries).
        for &(_, count) in &shards {
            if count > 0 {
                let _ = self.plan(count);
            }
        }

        // Reset every device's transfer counters up front — including
        // devices whose shard is empty this run, whose stale counters
        // from a previous run on the same `MultiGpu` would otherwise
        // leak into this run's h2d accounting.
        for i in 0..gpus.len() {
            gpus.device(i).memory().reset_counters();
        }

        let n_signals = self.graph().n_signals();
        let inputs = SegmentInputs {
            windows: &windows,
            stims: &win_stims,
            cone: None,
        };
        let mut totals = RunTotals::new(n_signals, "multi-resim");
        let mut slowest = 0.0f64;
        let mut spill = opts.spill_waveforms.then(|| SpillSink::new(n_signals));
        let mut used = vec![false; gpus.len()];
        let mut dead = vec![false; gpus.len()];
        let mut pending: Vec<(usize, usize)> = Vec::new();
        let mut fatal: Option<CoreError> = None;
        let mut degraded = false;
        // Windows [0, delivered_upto) were streamed to the caller's sink
        // before the first failure; the degraded-mode replay resumes there.
        let mut delivered_upto = 0usize;
        // Reorder buffer for degraded mode when the run has no spill of
        // its own (the spill doubles as the buffer otherwise — it accepts
        // windows in any order).
        let mut reorder: Option<SpillSink> = None;

        // The first round runs every device's own shard; each later round
        // is a failover (below).
        let fleet: Vec<usize> = (0..gpus.len()).collect();
        let own_shard = |d: usize| Some(shards[d]).filter(|&(_, count)| count > 0);
        let mut round = self.run_round(gpus, &totals.telemetry, &inputs, &fleet, own_shard);
        loop {
            // Settle the round in device order: shards cover contiguous
            // window ranges, so draining them through the active sinks in
            // this order merges the windows in time order. A shard whose
            // device failed permanently (or exhausted its retries) is
            // queued for failover; from the first failure on, delivery is
            // diverted away from the caller's streaming sink into a
            // reorder buffer (failover shards finish out of window order),
            // and the buffered tail is replayed to the caller in order at
            // the end — the stream it observes stays identical to a
            // fault-free run's.
            for (d, start, count, outcome) in round {
                let settle = |batch: WindowBatch| -> Result<()> {
                    let deliver_direct = !degraded && user_sink.is_some();
                    let mut sinks: Vec<&mut dyn WaveformSink> = Vec::new();
                    if let Some(sp) = spill.as_mut() {
                        sinks.push(sp);
                    } else if degraded && user_sink.is_some() {
                        sinks.push(reorder.get_or_insert_with(|| SpillSink::new(n_signals)));
                    }
                    if deliver_direct {
                        if let Some(us) = user_sink.as_mut() {
                            sinks.push(&mut **us);
                        }
                    }
                    // The drain is its own retry boundary: a transient
                    // readback fault re-reads, a permanent one strands the
                    // batch on the dead device — and since the drain feeds
                    // sinks only after every readback completed, nothing
                    // was accumulated or delivered and the whole shard can
                    // re-run elsewhere.
                    let t_drain = Instant::now();
                    let mut drained = 0;
                    if !sinks.is_empty() {
                        drained = self.with_retry(d, &totals.telemetry, || {
                            Ok(self.drain_segment(
                                gpus.device(d),
                                &batch,
                                d,
                                start,
                                &win_stims[start..start + count],
                                None,
                                &mut sinks,
                            ))
                        })?;
                    }
                    totals.absorb(&batch, drained, t_drain.elapsed().as_secs_f64());
                    slowest = slowest.max(batch.kernel_profile.modeled_seconds);
                    used[d] = true;
                    if deliver_direct {
                        delivered_upto = start + count;
                    }
                    Ok(())
                };
                match outcome.and_then(settle) {
                    Ok(()) => {}
                    Err(e @ CoreError::DeviceFault { .. }) => {
                        dead[d] = true;
                        degraded = true;
                        fatal = Some(e);
                        pending.push((start, count));
                    }
                    Err(e) => return Err(e),
                }
            }

            // Failover round: redistribute one lost shard across the
            // survivors against the already-shared schedule. Each round
            // either completes its sub-shards or kills at least one more
            // device, so the loop terminates; with no survivors left, the
            // run fails with the recorded fault.
            let Some((lost_start, lost_count)) = pending.pop() else {
                break;
            };
            let survivors: Vec<usize> = (0..gpus.len()).filter(|&d| !dead[d]).collect();
            if survivors.is_empty() {
                // panic-ok: invariant — a device is marked dead only
                // after its fault is recorded in `fatal`.
                return Err(fatal.take().expect("a failover implies a recorded fault"));
            }
            totals.telemetry.failover();
            // One sub-shard per survivor at most: a batch must be drained
            // before its device's arena can host another, so each device
            // takes a single range per round, claimed through the queue.
            let sub: Vec<(usize, usize)> = gatspi_gpu::shard_slots(lost_count, survivors.len())
                .into_iter()
                .filter(|&(_, c)| c > 0)
                .map(|(s, c)| (lost_start + s, c))
                .collect();
            let queue = ShardQueue::new(sub);
            round = self.run_round(gpus, &totals.telemetry, &inputs, &survivors, |_| {
                queue.claim()
            });
        }

        // Degraded-mode replay: hand the buffered tail to the caller's
        // sink in ascending (window, signal) order — the exact stream a
        // fault-free run would have produced from `delivered_upto` on.
        if degraded {
            if let Some(us) = user_sink.as_mut() {
                if let Some(buf) = spill.as_mut().or(reorder.as_mut()) {
                    // Seal first: buffered words are readable only from
                    // frozen chunks (re-sealing at the end stays a no-op).
                    buf.seal();
                    self.replay_spill(buf, &shards, delivered_upto, &mut **us);
                }
            }
        }
        // Devices run concurrently: modeled kernel time is the slowest's.
        totals.profile.modeled_seconds = slowest;
        let mut h2d_bytes = self.graph().device_bytes() * gpus.len() as u64;
        let mut d2h_bytes = 0u64;
        for i in 0..gpus.len() {
            h2d_bytes += gpus.device(i).memory().h2d_bytes();
            d2h_bytes += gpus.device(i).memory().d2h_bytes();
        }

        let (saif, toggle_counts) =
            self.assemble_saif(stimuli, duration, &totals.tc, &totals.t0, &totals.t1);
        let app_profile = totals.app_profile(
            gpus.device(0).spec(),
            used.iter().filter(|&&u| u).count(),
            h2d_bytes,
            d2h_bytes,
            restructure_seconds,
        );
        if let Some(sp) = spill.as_mut() {
            sp.seal();
        }
        Ok(SimResult {
            saif,
            kernel_profile: totals.profile,
            app_profile,
            wall_seconds: t_app.elapsed().as_secs_f64(),
            toggle_counts,
            duration,
            segments: totals.segments,
            extraction: None,
            spilled: spill,
        })
    }

    /// [`Session::run_to_vcd`] across multiple devices (via
    /// [`Session::run_multi_gpu_streaming`]): shards drain in time order,
    /// so the VCD is identical to a single-device run's.
    ///
    /// # Errors
    ///
    /// As [`Session::run_multi_gpu`]; writer failures surface as
    /// [`CoreError::Io`].
    pub fn run_multi_gpu_to_vcd<W: std::io::Write>(
        &self,
        gpus: &MultiGpu,
        stimuli: &[Waveform],
        duration: SimTime,
        opts: &RunOptions,
        out: W,
    ) -> Result<(SimResult, W)> {
        let names = self.signal_names();
        let mut sink = VcdSink::new(out, self.graph().name(), &names)?;
        let result = self.run_multi_gpu_streaming(gpus, stimuli, duration, opts, &mut sink)?;
        Ok((result, sink.finish()?))
    }

    /// [`Session::run_to_saif`] across multiple devices.
    ///
    /// # Errors
    ///
    /// As [`Session::run_multi_gpu`].
    pub fn run_multi_gpu_to_saif(
        &self,
        gpus: &MultiGpu,
        stimuli: &[Waveform],
        duration: SimTime,
        opts: &RunOptions,
    ) -> Result<(SimResult, SaifDocument)> {
        let names: Vec<String> = self.signal_names().iter().map(|s| s.to_string()).collect();
        let mut sink = SaifSink::new(self.graph().name(), names);
        let result = self.run_multi_gpu_streaming(gpus, stimuli, duration, opts, &mut sink)?;
        Ok((result, sink.finish(duration)))
    }
}

#[cfg(test)]
mod tests {
    use crate::{CoreError, Session, SimConfig};
    use gatspi_gpu::{DeviceSpec, MultiGpu};
    use gatspi_graph::{CircuitGraph, GraphOptions};
    use gatspi_netlist::{CellLibrary, NetlistBuilder};
    use gatspi_wave::Waveform;
    use std::sync::Arc;

    fn graph() -> Arc<CircuitGraph> {
        let mut b = NetlistBuilder::new("m", CellLibrary::industry_mini());
        let a = b.add_input("a").unwrap();
        let c = b.add_input("b").unwrap();
        let n1 = b.add_net("n1").unwrap();
        let y = b.add_output("y").unwrap();
        b.add_gate("u1", "XOR2", &[a, c], n1).unwrap();
        b.add_gate("u2", "INV", &[n1], y).unwrap();
        Arc::new(CircuitGraph::build(&b.finish().unwrap(), None, &GraphOptions::default()).unwrap())
    }

    #[test]
    fn multi_gpu_matches_single_device() {
        let g = graph();
        let cfg = SimConfig::small()
            .with_cycle_parallelism(4)
            .with_window_align(100);
        let sim = Session::new(Arc::clone(&g), cfg);
        let stimuli = vec![
            Waveform::from_toggles(false, &[150, 420, 650]),
            Waveform::from_toggles(true, &[310, 890]),
        ];
        let single = sim.run(&stimuli, 1000).unwrap();
        let gpus = MultiGpu::new(DeviceSpec::v100(), 2, 1 << 18);
        let multi = sim.run_multi_gpu(&gpus, &stimuli, 1000).unwrap();
        assert!(single.saif.diff(&multi.saif).is_empty());
        assert_eq!(single.total_toggles(), multi.total_toggles());
    }

    #[test]
    fn multi_gpu_builds_schedule_once_for_even_shards() {
        let g = graph();
        // 4 windows/device × 2 devices, duration divisible: even shards,
        // one plan build for the entire multi-GPU run.
        let cfg = SimConfig::small()
            .with_cycle_parallelism(4)
            .with_window_align(100);
        let sim = Session::new(Arc::clone(&g), cfg);
        let stimuli = vec![
            Waveform::from_toggles(false, &[150, 420, 650]),
            Waveform::from_toggles(true, &[310]),
        ];
        let gpus = MultiGpu::new(DeviceSpec::v100(), 2, 1 << 18);
        let _ = sim.run_multi_gpu(&gpus, &stimuli, 800).unwrap();
        let stats = sim.plan_cache_stats();
        assert_eq!(
            stats.misses, 1,
            "one LevelSchedule build shared across both shards"
        );
        // Pre-warm resolves the second shard's plan from cache, then each
        // shard thread re-resolves its (warm) plan at execution time.
        assert_eq!(stats.hits, 3, "every other lookup hits the cache");
    }

    #[test]
    fn multi_gpu_stimulus_mismatch() {
        let g = graph();
        let sim = Session::new(g, SimConfig::small());
        let gpus = MultiGpu::new(DeviceSpec::v100(), 2, 1 << 16);
        assert!(matches!(
            sim.run_multi_gpu(&gpus, &[], 100),
            Err(CoreError::StimulusMismatch { .. })
        ));
    }
}

/// Exhaustive interleaving test for the failover hand-off, run on the loom
/// model types (`cargo test --features model-check`).
#[cfg(all(test, feature = "model-check"))]
mod model_tests {
    use super::*;

    /// The failover work handoff: survivor threads claiming a dead
    /// device's sub-shards through [`ShardQueue`] must together execute
    /// every queued range exactly once, in every interleaving — no range
    /// dropped (windows silently missing from the merged result) and no
    /// range claimed twice (double-counted toggles).
    #[test]
    fn failover_ranges_claimed_exactly_once() {
        loom::model(|| {
            let queue = std::sync::Arc::new(ShardQueue::new(vec![(0, 2), (2, 1), (3, 2)]));
            let mut handles = Vec::new();
            for _ in 0..2 {
                let q = std::sync::Arc::clone(&queue);
                handles.push(loom::thread::spawn(move || {
                    let mut mine = Vec::new();
                    while let Some(r) = q.claim() {
                        mine.push(r);
                    }
                    mine
                }));
            }
            let mut all: Vec<(usize, usize)> = handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect();
            all.sort_unstable();
            assert_eq!(
                all,
                vec![(0, 2), (2, 1), (3, 2)],
                "every range claimed exactly once"
            );
        });
    }
}
