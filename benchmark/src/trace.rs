//! The benchmark-side tracer: spans around calls into public simulator
//! functions, and a profiled run loop that brackets `Engine::step`.
//!
//! Everything here lives outside the simulator (which stays clock-free).
//! Spans are kept in memory and written only when the run ends. A span's
//! self time is its duration minus the part its children cover, so the
//! time the benchmark itself spends generating inputs shows up as the
//! self time of the `setup` span rather than polluting a layer.

use std::time::Instant;

use ibsim_verbs::{Cluster, ClusterStats, Sim};

use crate::json::Json;
use crate::yardstick::{Meter, Phase, LAP};

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was timed, e.g. `verbs.connect_pair`.
    pub name: &'static str,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// How many calls the span stands for (1 for a real interval; a
    /// per-class aggregate of run-loop steps carries its step count).
    pub calls: u64,
    /// The time was spent inside spans recorded elsewhere (a
    /// [`CallClock`] total: posts happen inside run-loop steps), so it
    /// is information only and never subtracted from the parent.
    pub overlay: bool,
}

/// Records spans as a tree; `None` wherever a run is untraced.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn since_origin(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span that encloses everything recorded until the matching
    /// [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) {
        let start_ns = self.since_origin(Instant::now());
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            dur_ns: 0,
            calls: 1,
            overlay: false,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let now = self.since_origin(Instant::now());
        let idx = self.open.pop().expect("invariant: exit matches an enter");
        self.spans[idx].dur_ns = now - self.spans[idx].start_ns;
    }

    /// Records a finished interval as a child of the innermost open span.
    pub fn leaf(&mut self, name: &'static str, start: Instant, end: Instant) {
        let start_ns = self.since_origin(start);
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            dur_ns: end.duration_since(start).as_nanos() as u64,
            calls: 1,
            overlay: false,
        });
    }

    /// Records an aggregate of `calls` intervals totalling `dur_ns` as a
    /// child of the innermost open span (the run loop's step classes:
    /// 1.6 M steps are summed per class, not stored one by one).
    pub fn aggregate(&mut self, name: &'static str, dur_ns: u64, calls: u64) {
        self.push_aggregate(name, dur_ns, calls, false);
    }

    fn push_aggregate(&mut self, name: &'static str, dur_ns: u64, calls: u64, overlay: bool) {
        let start_ns = self.open.last().map_or(0, |&i| self.spans[i].start_ns);
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            dur_ns,
            calls,
            overlay,
        });
    }

    /// Every span recorded so far.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// `(calls, total ns)` over every span named `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(c, ns), s| (c + s.calls, ns + s.dur_ns))
    }

    /// Mean duration per call of the spans named `name`, in nanoseconds
    /// (0 when there were none).
    pub fn mean_ns(&self, name: &str) -> f64 {
        let (calls, ns) = self.total(name);
        if calls == 0 {
            0.0
        } else {
            ns as f64 / calls as f64
        }
    }

    /// Self time of every span: its duration minus its direct children
    /// (overlay spans are never subtracted).
    fn self_ns(&self) -> Vec<u64> {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let (Some(p), false) = (s.parent, s.overlay) {
                children[p] += s.dur_ns;
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, c)| s.dur_ns.saturating_sub(c))
            .collect()
    }

    /// Spans rolled up by `(parent name, name)`: calls, total and self
    /// nanoseconds — what `trace` prints and writes.
    pub fn rollup(&self) -> Vec<Rollup> {
        let mut out: Vec<Rollup> = Vec::new();
        for (s, self_ns) in self.spans.iter().zip(self.self_ns()) {
            let parent = s.parent.map_or("", |p| self.spans[p].name);
            match out
                .iter_mut()
                .find(|r| r.name == s.name && r.parent == parent)
            {
                Some(r) => {
                    r.calls += s.calls;
                    r.total_ns += s.dur_ns;
                    r.self_ns += self_ns;
                }
                None => out.push(Rollup {
                    name: s.name,
                    parent,
                    calls: s.calls,
                    total_ns: s.dur_ns,
                    self_ns,
                }),
            }
        }
        out
    }
}

/// A rollup as JSON, for the `trace` output file.
pub fn rollup_json(rollup: &[Rollup]) -> Json {
    Json::Arr(
        rollup
            .iter()
            .map(|r| {
                Json::obj()
                    .with("span", r.name)
                    .with("parent", r.parent)
                    .with("calls", r.calls)
                    .with("total_ns", r.total_ns)
                    .with("self_ns", r.self_ns)
            })
            .collect(),
    )
}

/// One line of [`Tracer::rollup`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rollup {
    /// Span name.
    pub name: &'static str,
    /// Name of the enclosing span (`""` at the root).
    pub parent: &'static str,
    /// Calls summed.
    pub calls: u64,
    /// Total nanoseconds.
    pub total_ns: u64,
    /// Nanoseconds not covered by children.
    pub self_ns: u64,
}

/// Times `f` as a leaf span when tracing, and just calls it otherwise.
#[inline]
pub fn timed<T>(tr: &mut Option<Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tr {
        None => f(),
        Some(t) => {
            let start = Instant::now();
            let out = f();
            t.leaf(name, start, Instant::now());
            out
        }
    }
}

/// Calls and nanoseconds of one public function, accumulated from
/// inside engine events. Posts and polls that a workload issues from a
/// scheduled closure run under `Engine::step`, where the tracer cannot
/// bracket them from the outside; the closure (benchmark code) times
/// them into one of these and the total lands in the tracer as an
/// aggregate span when the pass finishes.
#[derive(Debug, Default)]
pub struct CallClock {
    calls: std::cell::Cell<u64>,
    ns: std::cell::Cell<u64>,
}

impl CallClock {
    /// Times one call.
    #[inline]
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.ns
            .set(self.ns.get() + start.elapsed().as_nanos() as u64);
        self.calls.set(self.calls.get() + 1);
        out
    }

    /// Records the total as an overlay aggregate span named `name`.
    pub fn flush(&self, tracer: &mut Tracer, name: &'static str) {
        tracer.push_aggregate(name, self.ns.get(), self.calls.get(), true);
    }
}

/// Times `f` on `clock` when there is one, and just calls it otherwise.
#[inline]
pub fn clocked<T>(clock: Option<&CallClock>, f: impl FnOnce() -> T) -> T {
    match clock {
        None => f(),
        Some(c) => c.time(f),
    }
}

/// Opens a span when tracing.
pub fn enter(tr: &mut Option<Tracer>, name: &'static str) {
    if let Some(t) = tr {
        t.enter(name);
    }
}

/// Closes the innermost span when tracing.
pub fn exit(tr: &mut Option<Tracer>) {
    if let Some(t) = tr {
        t.exit();
    }
}

/// What one `Engine::step` did, judged from outside by the
/// [`ClusterStats`] delta it produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepClass {
    /// No packet left any NIC: a timer tick that decided nothing, a
    /// driver job, a delivery that only updated state.
    Idle,
    /// At least one first-transmission request packet.
    Request,
    /// At least one retransmitted request packet.
    Retransmit,
    /// At least one READ response packet.
    Response,
    /// At least one ACK.
    Ack,
    /// At least one RNR or sequence-error NAK.
    Nak,
}

impl StepClass {
    /// Every class, in reporting order.
    pub const ALL: [StepClass; 6] = [
        StepClass::Idle,
        StepClass::Request,
        StepClass::Retransmit,
        StepClass::Response,
        StepClass::Ack,
        StepClass::Nak,
    ];

    /// The class's span name and its `verbs.step.<class>.n` / `.ns`
    /// metric names.
    pub fn names(self) -> (&'static str, &'static str, &'static str) {
        match self {
            StepClass::Idle => ("verbs.step.idle", "verbs.step.idle.n", "verbs.step.idle.ns"),
            StepClass::Request => (
                "verbs.step.request",
                "verbs.step.request.n",
                "verbs.step.request.ns",
            ),
            StepClass::Retransmit => (
                "verbs.step.retransmit",
                "verbs.step.retransmit.n",
                "verbs.step.retransmit.ns",
            ),
            StepClass::Response => (
                "verbs.step.response",
                "verbs.step.response.n",
                "verbs.step.response.ns",
            ),
            StepClass::Ack => ("verbs.step.ack", "verbs.step.ack.n", "verbs.step.ack.ns"),
            StepClass::Nak => ("verbs.step.nak", "verbs.step.nak.n", "verbs.step.nak.ns"),
        }
    }
}

/// Classes one step. A step that emitted several kinds of packet is
/// classed by the costliest: retransmit over request over response over
/// NAK over ACK.
pub fn classify(before: &ClusterStats, after: &ClusterStats) -> StepClass {
    if after.retransmit_packets > before.retransmit_packets {
        StepClass::Retransmit
    } else if after.request_packets > before.request_packets {
        StepClass::Request
    } else if after.response_packets > before.response_packets {
        StepClass::Response
    } else if after.rnr_nak_packets > before.rnr_nak_packets
        || after.seq_nak_packets > before.seq_nak_packets
    {
        StepClass::Nak
    } else if after.ack_packets > before.ack_packets {
        StepClass::Ack
    } else {
        StepClass::Idle
    }
}

/// Result of [`profiled_run`].
#[derive(Debug, Default, Clone)]
pub struct StepProfile {
    /// Steps per class, indexed like [`StepClass::ALL`].
    pub n: [u64; 6],
    /// Nanoseconds per class.
    pub ns: [u64; 6],
    /// Every step's duration in nanoseconds (saturating at `u32::MAX`).
    pub durations: Vec<u32>,
}

/// `eng.run(cl)` as a loop of bracketed `Engine::step` calls.
///
/// One clock reading per step: a step is charged the interval between
/// the reading before it and the reading after it, which includes the
/// bracket's own bookkeeping. The class times therefore add up to the
/// loop's wall time by construction, and that bookkeeping is exactly
/// what `trace.overhead` reports.
///
/// The meter laps as in the untraced run; a yardstick reading falls
/// between two steps and is charged to neither.
pub fn profiled_run(eng: &mut Sim, cl: &mut Cluster, meter: &mut Meter) -> StepProfile {
    let mut prof = StepProfile {
        durations: Vec::with_capacity(1 << 20),
        ..StepProfile::default()
    };
    let mut prev = Instant::now();
    let mut lap_start = prev;
    loop {
        let before = cl.stats;
        if !eng.step(cl) {
            break;
        }
        let now = Instant::now();
        let dt = now.duration_since(prev).as_nanos() as u64;
        prev = now;
        let class = classify(&before, &cl.stats) as usize;
        prof.n[class] += 1;
        prof.ns[class] += dt;
        prof.durations.push(dt.min(u32::MAX as u64) as u32);
        if now.duration_since(lap_start) >= LAP {
            meter.book(Phase::Run, now.duration_since(lap_start).as_secs_f64());
            meter.lap();
            prev = Instant::now();
            lap_start = prev;
        }
    }
    meter.book(Phase::Run, prev.duration_since(lap_start).as_secs_f64());
    prof
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(f: impl FnOnce(&mut ClusterStats)) -> ClusterStats {
        let mut s = ClusterStats::default();
        f(&mut s);
        s
    }

    #[test]
    fn classification_follows_the_packet_delta() {
        let zero = ClusterStats::default();
        assert_eq!(classify(&zero, &zero), StepClass::Idle);
        assert_eq!(
            classify(&zero, &stats(|s| s.request_packets = 1)),
            StepClass::Request
        );
        assert_eq!(
            classify(&zero, &stats(|s| s.retransmit_packets = 3)),
            StepClass::Retransmit
        );
        assert_eq!(
            classify(&zero, &stats(|s| s.response_packets = 1)),
            StepClass::Response
        );
        assert_eq!(
            classify(&zero, &stats(|s| s.ack_packets = 1)),
            StepClass::Ack
        );
        assert_eq!(
            classify(&zero, &stats(|s| s.rnr_nak_packets = 1)),
            StepClass::Nak
        );
        assert_eq!(
            classify(&zero, &stats(|s| s.seq_nak_packets = 1)),
            StepClass::Nak
        );
        // Ghosts and drops alone do not class a step.
        assert_eq!(
            classify(&zero, &stats(|s| s.fabric_drops = 1)),
            StepClass::Idle
        );
    }

    #[test]
    fn mixed_steps_take_the_costliest_class() {
        let zero = ClusterStats::default();
        let mixed = stats(|s| {
            s.retransmit_packets = 1;
            s.request_packets = 1;
            s.ack_packets = 1;
        });
        assert_eq!(classify(&zero, &mixed), StepClass::Retransmit);
        let resp_ack = stats(|s| {
            s.response_packets = 1;
            s.ack_packets = 1;
        });
        assert_eq!(classify(&zero, &resp_ack), StepClass::Response);
        let nak_ack = stats(|s| {
            s.seq_nak_packets = 1;
            s.ack_packets = 1;
        });
        assert_eq!(classify(&zero, &nak_ack), StepClass::Nak);
        // Discriminants index the per-class arrays in ALL order.
        for (i, c) in StepClass::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i);
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new();
        t.enter("pass");
        t.enter("setup");
        let a = Instant::now();
        let b = a + std::time::Duration::from_nanos(300);
        t.leaf("verbs.add_host", a, b);
        t.leaf("verbs.add_host", a, b);
        t.exit();
        t.aggregate("verbs.step.idle", 1_000, 10);
        t.exit();
        let spans = t.spans();
        assert_eq!(spans[1].name, "setup");
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(t.total("verbs.add_host"), (2, 600));
        assert_eq!(t.mean_ns("verbs.add_host"), 300.0);
        assert_eq!(t.mean_ns("absent"), 0.0);
        assert_eq!(t.self_ns()[1], spans[1].dur_ns.saturating_sub(600));
        let roll = t.rollup();
        let hosts = roll
            .iter()
            .find(|r| r.name == "verbs.add_host")
            .expect("rolled up");
        assert_eq!(
            (hosts.parent, hosts.calls, hosts.total_ns),
            ("setup", 2, 600)
        );
        let idle = roll
            .iter()
            .find(|r| r.name == "verbs.step.idle")
            .expect("rolled up");
        assert_eq!((idle.parent, idle.calls), ("pass", 10));
    }
}
