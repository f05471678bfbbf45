//! # ibsim-telemetry
//!
//! Sim-time observability for the `ibsim` workspace: a deterministic
//! metric registry (counters, gauges, log2 histograms keyed by static
//! name plus optional `(host, qpn)` labels), **fault-lifecycle spans**
//! that decompose one network page fault into the stages the paper
//! measures (queue wait → resolution → per-QP propagation → retransmit
//! drain), and two exporters (human summary, JSON-lines) whose output
//! is byte-identical across runs of the same seeded workload.
//!
//! The paper's methodology is observational — `ibdump` captures and
//! reverse-engineered timelines are how packet damming (§V) and the
//! packet flood (§VI) were found. This crate gives the simulator the
//! instrumentation the authors had to reconstruct by hand: every span
//! answers "where did this fault's 500 ms go?" with named stages whose
//! durations sum exactly to the end-to-end latency.
//!
//! ## Cost when on
//!
//! The [`Registry`] is a table of metric families, each a dense
//! `[host][qpn]` table, so a write is one lookup among a few dozen names
//! plus two indexes, and an end-of-run snapshot
//! ([`Registry::set_gauges`]) looks its family up once. Per-QP
//! state-dwell clocks and the span store's per-QP waiter counts sit in
//! dense `[host][qpn]` tables too. The exports of three seeded runs are
//! pinned by hash, so none of this may move a byte.
//!
//! ## Zero perturbation
//!
//! A [`Telemetry`] handle starts disabled and records nothing until
//! [`Telemetry::enable`] is called. Recording never schedules events,
//! draws randomness, or allocates on behalf of the simulation — enabling
//! telemetry must not move a single packet, which CI enforces by
//! asserting the golden FNV trace hashes are unchanged with telemetry
//! on.
//!
//! # Examples
//!
//! A disabled hub records nothing; an enabled one counts and opens a
//! span per raised fault:
//!
//! ```
//! use ibsim_event::SimTime;
//! use ibsim_telemetry::{Labels, Telemetry};
//!
//! let record = |hub: &mut Telemetry| {
//!     hub.counter_add("packets.tx", Labels::host(0), 2);
//!     hub.counter_add("packets.tx", Labels::host(0), 1);
//!     hub.fault_raised(0, 1, 7, SimTime::from_us(5));
//! };
//! let mut off = Telemetry::new();
//! record(&mut off);
//! assert!(off.registry().is_empty());
//! assert_eq!(off.open_span_count(), 0);
//!
//! let mut on = Telemetry::new();
//! on.enable();
//! record(&mut on);
//! assert_eq!(on.registry().counter("packets.tx", Labels::host(0)), Some(3));
//! assert_eq!(on.open_span_count(), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod export;
mod registry;
mod span;

use ibsim_event::SimTime;

pub use export::{export_jsonl, render_summary};
pub use registry::{Histogram, Instrument, Labels, Registry, HISTOGRAM_BUCKETS};
pub use span::{FaultSpan, SpanStore, STAGE_NAMES};

/// The observability hub threaded through the simulator.
///
/// One `Telemetry` lives on the cluster; layers report into it through
/// the methods below. Every method is a no-op while disabled, so the
/// instrumented hot paths cost one branch when observability is off.
///
/// Per-QP dwell clocks live in a dense `[host][qpn]` table, grown to
/// the largest id seen. That relies on host ids and QPNs being small
/// dense integers, as the verbs crate hands them out (hosts from 0, QPNs
/// from 1 on each host). An id past the InfiniBand id space (a host past
/// the 16-bit LID range, a QPN past 24 bits) grows no table: its clocks,
/// metric writes and span waits are ignored.
#[derive(Debug, Default)]
pub struct Telemetry {
    enabled: bool,
    registry: Registry,
    spans: SpanStore,
    /// Each QP's current state, as its dwell metric, and when it was
    /// entered; `None` until first sampled.
    dwell: Vec<Vec<Option<(&'static str, SimTime)>>>,
}

impl Telemetry {
    /// Creates a disabled hub.
    pub fn new() -> Self {
        Telemetry::default()
    }

    /// Turns recording on.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// True if recording.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The metric registry (read side, for exporters and assertions).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Spans that ran to completion, in close order.
    pub fn spans(&self) -> &[FaultSpan] {
        self.spans.closed()
    }

    /// Faults still mid-lifecycle.
    pub fn open_span_count(&self) -> usize {
        self.spans.open_count()
    }

    /// Closed spans violating the stage-sum conservation law: the four
    /// named stage durations of every closed span must sum exactly to
    /// its end-to-end latency. Zero on a healthy hub; the scenario
    /// oracle asserts this after every run.
    pub fn stage_sum_violations(&self) -> usize {
        self.spans
            .closed()
            .iter()
            .filter(|s| {
                let (Some(stages), Some(total)) = (s.stages(), s.end_to_end()) else {
                    return true; // a closed span must expose both
                };
                let sum: SimTime = stages.iter().fold(SimTime::ZERO, |acc, &(_, d)| acc + d);
                sum != total
            })
            .count()
    }

    // ------------------------------------------------------------------
    // Registry write side
    // ------------------------------------------------------------------

    /// Adds `delta` to a counter.
    pub fn counter_add(&mut self, name: &'static str, labels: Labels, delta: u64) {
        if self.enabled {
            self.registry.counter_add(name, labels, delta);
        }
    }

    /// Sets a gauge.
    pub fn gauge_set(&mut self, name: &'static str, labels: Labels, v: u64) {
        if self.enabled {
            self.registry.gauge_set(name, labels, v);
        }
    }

    /// Sets a family of gauges from `(labels, value)` rows in ascending
    /// label order; see [`Registry::set_gauges`].
    pub fn set_gauges(
        &mut self,
        name: &'static str,
        rows: impl IntoIterator<Item = (Labels, u64)>,
    ) {
        if self.enabled {
            self.registry.set_gauges(name, rows);
        }
    }

    /// Records a histogram sample.
    pub fn observe(&mut self, name: &'static str, labels: Labels, v: u64) {
        if self.enabled {
            self.registry.observe(name, labels, v);
        }
    }

    // ------------------------------------------------------------------
    // Work-request latency
    // ------------------------------------------------------------------

    /// A completion landed on the CQ: records post-to-completion latency
    /// from `posted_at`, the work request's post time (`None` for a
    /// receive, which has none), and lets any fault span waiting on this
    /// QP check it off.
    pub fn wr_completed(&mut self, host: u64, qpn: u32, posted_at: Option<SimTime>, now: SimTime) {
        if !self.enabled {
            return;
        }
        self.registry
            .counter_add("cq.completions", Labels::host_qp(host, qpn), 1);
        if let Some(posted) = posted_at {
            self.registry.observe(
                "cq.wr_latency_ns",
                Labels::host(host),
                (now - posted).as_ns(),
            );
        }
        self.spans.qp_completion(host, qpn, now);
    }

    // ------------------------------------------------------------------
    // Fault lifecycle
    // ------------------------------------------------------------------

    /// A network page fault was raised (span stage 1).
    pub fn fault_raised(&mut self, host: u64, mr: u32, page: u64, now: SimTime) {
        if !self.enabled {
            return;
        }
        self.registry
            .counter_add("fault.raised", Labels::host(host), 1);
        self.spans.fault_raised(host, mr, page, now);
    }

    /// The driver popped the fault off its work queue (ends queue wait).
    pub fn fault_service_begin(&mut self, host: u64, mr: u32, page: u64, now: SimTime) {
        if self.enabled {
            self.spans.service_begin(host, mr, page, now);
        }
    }

    /// The driver mapped the page. `waiters` are the parked QPs; `stale`
    /// of them need serialized per-QP resumes (§VI-B).
    pub fn fault_resolved(
        &mut self,
        host: u64,
        mr: u32,
        page: u64,
        now: SimTime,
        waiters: &[u32],
        stale: u32,
    ) {
        if !self.enabled {
            return;
        }
        self.registry
            .counter_add("fault.resolved", Labels::host(host), 1);
        self.spans
            .fault_resolved(host, mr, page, now, waiters, stale);
    }

    /// A serialized per-QP page-status resume finished.
    pub fn resume_done(&mut self, host: u64, mr: u32, page: u64, now: SimTime) {
        if !self.enabled {
            return;
        }
        self.registry
            .counter_add("driver.qp_resumes", Labels::host(host), 1);
        self.spans.resume_done(host, mr, page, now);
    }

    // ------------------------------------------------------------------
    // QP state dwell times
    // ------------------------------------------------------------------

    /// Samples a QP's current state, named by its dwell metric (the
    /// counter its time in that state accumulates into, such as
    /// `qp.dwell_rts_ns`); on every change of state the time spent in
    /// the previous one is added to that one's counter.
    pub fn qp_state_sample(&mut self, host: u64, qpn: u32, metric: &'static str, now: SimTime) {
        if !self.enabled {
            return;
        }
        let Some(clock) = registry::dense_cell(&mut self.dwell, host, qpn) else {
            return;
        };
        let entry = clock.get_or_insert((metric, now));
        if entry.0 != metric {
            let (prev, since) = std::mem::replace(entry, (metric, now));
            self.registry
                .counter_add(prev, Labels::host_qp(host, qpn), (now - since).as_ns());
        }
    }

    /// Flushes the partial dwell of every tracked QP up to `now`
    /// (called before exporting so the table reflects the full run).
    pub fn flush_dwell(&mut self, now: SimTime) {
        if !self.enabled {
            return;
        }
        for (host, row) in self.dwell.iter_mut().enumerate() {
            for (qpn, clock) in row.iter_mut().enumerate() {
                let Some((metric, since)) = clock else {
                    continue;
                };
                self.registry.counter_add(
                    metric,
                    Labels::host_qp(host as u64, qpn as u32),
                    (now - *since).as_ns(),
                );
                *since = now;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_us(us)
    }

    #[test]
    fn disabled_hub_records_nothing() {
        let mut tel = Telemetry::new();
        tel.counter_add("a", Labels::NONE, 1);
        tel.observe("b", Labels::NONE, 1);
        tel.gauge_set("c", Labels::NONE, 1);
        tel.wr_completed(0, 0, Some(t(0)), t(1));
        tel.fault_raised(0, 0, 0, t(0));
        tel.qp_state_sample(0, 0, "qp.dwell_rts_ns", t(0));
        assert!(tel.registry().is_empty());
        assert_eq!(tel.spans().len(), 0);
        assert_eq!(tel.open_span_count(), 0);
    }

    #[test]
    fn wr_latency_is_post_to_completion() {
        let mut tel = Telemetry::new();
        tel.enable();
        tel.wr_completed(1, 7, Some(t(100)), t(350));
        let h = tel
            .registry()
            .histogram("cq.wr_latency_ns", Labels::host(1))
            .expect("histogram exists");
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 250_000);
        assert_eq!(
            tel.registry()
                .counter("cq.completions", Labels::host_qp(1, 7)),
            Some(1)
        );
    }

    #[test]
    fn two_in_flight_wrs_with_one_id_get_a_sample_each() {
        let mut tel = Telemetry::new();
        tel.enable();
        // Each completion carries its own WR's post time, so two WRs
        // sharing an id never trade clocks.
        tel.wr_completed(0, 1, Some(t(10)), t(50));
        tel.wr_completed(0, 1, Some(t(20)), t(100));
        // A receive completion carries none and records no sample.
        tel.wr_completed(0, 1, None, t(100));
        let h = tel
            .registry()
            .histogram("cq.wr_latency_ns", Labels::host(0))
            .expect("histogram exists");
        assert_eq!((h.count(), h.min(), h.max()), (2, 40_000, 80_000));
        assert_eq!(
            tel.registry()
                .counter("cq.completions", Labels::host_qp(0, 1)),
            Some(3)
        );
    }

    #[test]
    fn ids_past_the_id_space_start_no_clock() {
        let mut tel = Telemetry::new();
        tel.enable();
        for (host, qpn) in [(0, u32::MAX), (0, 1 << 24), (1 << 16, 1), (u64::MAX, 0)] {
            tel.qp_state_sample(host, qpn, "qp.dwell_rts_ns", t(0));
            tel.wr_completed(host, qpn, None, t(5));
        }
        tel.flush_dwell(t(10));
        assert!(tel.dwell.is_empty());
        assert!(tel.registry().is_empty());
    }

    #[test]
    fn full_fault_lifecycle_through_hub() {
        let mut tel = Telemetry::new();
        tel.enable();
        tel.fault_raised(0, 2, 1, t(0));
        tel.fault_service_begin(0, 2, 1, t(10));
        tel.fault_resolved(0, 2, 1, t(400), &[5, 6], 1);
        tel.resume_done(0, 2, 1, t(425));
        tel.wr_completed(0, 5, Some(t(0)), t(430));
        tel.wr_completed(0, 6, None, t(440));
        assert_eq!(tel.spans().len(), 1);
        let span = &tel.spans()[0];
        let stages = span.stages().expect("closed");
        let total: SimTime = stages.iter().map(|&(_, d)| d).sum();
        assert_eq!(Some(total), span.end_to_end());
        assert_eq!(span.end_to_end(), Some(t(440)));
        assert_eq!(
            tel.registry().counter("fault.raised", Labels::host(0)),
            Some(1)
        );
        assert_eq!(
            tel.registry().counter("driver.qp_resumes", Labels::host(0)),
            Some(1)
        );
    }

    #[test]
    fn dwell_accumulates_per_state() {
        let mut tel = Telemetry::new();
        tel.enable();
        tel.qp_state_sample(0, 3, "qp.dwell_init_ns", t(0));
        tel.qp_state_sample(0, 3, "qp.dwell_init_ns", t(5));
        tel.qp_state_sample(0, 3, "qp.dwell_rts_ns", t(10));
        tel.flush_dwell(t(100));
        let l = Labels::host_qp(0, 3);
        assert_eq!(tel.registry().counter("qp.dwell_init_ns", l), Some(10_000));
        assert_eq!(tel.registry().counter("qp.dwell_rts_ns", l), Some(90_000));
        // A second flush at the same instant adds nothing.
        tel.flush_dwell(t(100));
        assert_eq!(tel.registry().counter("qp.dwell_rts_ns", l), Some(90_000));
    }
}
