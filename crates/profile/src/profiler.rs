//! The [`Profiler`]: a [`Probe`] that folds the event stream into the
//! per-PE counts and the three profile analyses as the machine runs.
//!
//! The fold is streaming with bounded memory: no event is buffered. State
//! grows only with machine size (PEs × frame slots, plus in-flight
//! packets), never with run length — profiling a billion-cycle run costs
//! the same memory as a thousand-cycle one. Like the `Recorder`, the
//! machine owns the probe (`Machine::attach_probe` takes a `Box`), so
//! results come back through a shared handle: attach the [`Profiler`],
//! run, then call [`ProfilerHandle::finish`] with the run's counter
//! report to settle the attribution against the cost model and build the
//! [`ProfileReport`].

use std::sync::{Arc, Mutex};

use emx_core::{CostModel, Cycle, PeId, Probe, TraceKind};
use emx_stats::RunReport;

use crate::attrib::AttribFold;
use crate::blame::BlameFold;
use crate::critical::CritFold;
use crate::report::{ppm, BlameSummary, CritSummary, PeProfile, ProfileReport};

#[derive(Debug, Default)]
struct ProfileState {
    attrib: AttribFold,
    blame: BlameFold,
    crit: CritFold,
    events: u64,
}

impl ProfileState {
    fn observe(&mut self, at: u64, pe: usize, kind: &TraceKind) {
        self.events += 1;
        self.attrib.observe(at, pe, kind);
        self.blame.observe(at, pe, kind);
        self.crit.observe(at, pe, kind);
    }
}

/// The probe half: attach to a `Machine` and run.
#[derive(Debug)]
pub struct Profiler {
    state: Arc<Mutex<ProfileState>>,
}

/// The retrieval half: settle the folds into a [`ProfileReport`].
#[derive(Debug)]
pub struct ProfilerHandle {
    state: Arc<Mutex<ProfileState>>,
    costs: CostModel,
}

impl Profiler {
    /// A connected probe/handle pair. `costs` must be the cost model the
    /// machine runs under — the attribution's switch reconstruction
    /// multiplies event counts by these charges.
    pub fn new(costs: CostModel) -> (Profiler, ProfilerHandle) {
        let state = Arc::new(Mutex::new(ProfileState::default()));
        (
            Profiler {
                state: Arc::clone(&state),
            },
            ProfilerHandle { state, costs },
        )
    }
}

impl Probe for Profiler {
    fn on(&mut self, at: Cycle, pe: PeId, kind: TraceKind) {
        self.state
            .lock()
            .unwrap()
            .observe(at.get(), pe.index(), &kind);
    }
}

impl ProfilerHandle {
    /// Events folded so far (cheap liveness check in tests).
    pub fn events_seen(&self) -> u64 {
        self.state.lock().unwrap().events
    }

    /// Settle the folds against the run's counter report and produce the
    /// profile. Call once, after the machine finished.
    pub fn finish(&self, run: &RunReport) -> ProfileReport {
        let st = self.state.lock().unwrap();
        let elapsed = run.elapsed.get();
        let n = run.per_pe.len().max(st.attrib.num_pes());

        let mut pes = Vec::with_capacity(n);
        let mut totals = [0u64; 4];
        let mut counter_totals = [0u64; 4];
        let mut xval_max = 0u64;
        for i in 0..n {
            let attrib = st.attrib.attribution(i, elapsed, &self.costs);
            let counter = run.per_pe.get(i).map_or([0, 0, 0, elapsed], |p| {
                let b = &p.breakdown;
                [
                    (b.compute + b.overhead).get(),
                    b.switch.get(),
                    b.comm.get(),
                    elapsed.saturating_sub(b.total().get()),
                ]
            });
            let trace = [attrib.busy, attrib.switch, attrib.wait, attrib.idle];
            let mut xval_ppm = [0u64; 4];
            for c in 0..4 {
                totals[c] += trace[c];
                counter_totals[c] += counter[c];
                xval_ppm[c] = ppm(trace[c].abs_diff(counter[c]), elapsed);
                xval_max = xval_max.max(xval_ppm[c]);
            }
            pes.push(PeProfile {
                events: st.attrib.events(i),
                attrib,
                counter,
                xval_ppm,
            });
        }
        let machine_time = elapsed.saturating_mul(n as u64);
        let shares_ppm = totals.map(|t| ppm(t, machine_time));
        let counter_shares_ppm = counter_totals.map(|t| ppm(t, machine_time));

        let blame = BlameSummary {
            counters: st.blame.counters,
            dominant: st.blame.dominant_phase(),
            mean_hops_milli: st.blame.mean_hops_milli(),
            phases: st.blame.phases.to_vec(),
            total: st.blame.total.clone(),
            block_total: st.blame.block_total.clone(),
        };

        let critical = st.crit.critical_path().map(|cp| {
            let span = cp.chain.span();
            CritSummary {
                end: cp.end,
                root: cp.chain.root,
                span,
                depth: cp.chain.depth,
                share_ppm: ppm(span, elapsed),
                segments: crate::report::rank_segments(&cp.chain.cycles, &cp.chain.counts, span),
            }
        });

        ProfileReport {
            meta: Vec::new(),
            elapsed,
            clock_hz: run.clock_hz,
            pes,
            shares_ppm,
            counter_shares_ppm,
            xval_max_ppm: xval_max,
            blame,
            queue_depth: st.attrib.queue_depth.clone(),
            run_length: st.attrib.run_length.clone(),
            critical,
        }
    }
}
