//! The one capture walk.
//!
//! The paper's method (§V–§VI, §IX-A) was to read `ibdump` captures
//! until a stall could be explained packet by packet. [`walk`] does that
//! reading once. It makes a single pass over one host's capture and
//! builds a table of *requests*, one per (flow, PSN), in
//! first-transmission order. Each request holds its opcode, its PSN
//! span, every transmission [`Attempt`] with the [`Cause`] that explains
//! it, and the replies it drew. A *flow* is the ordered pair (local QP,
//! remote QP). The walk reads it from the requester's seat: transmitted
//! requests and received replies build the record, and responder-side
//! frames (received requests, sent replies) are only counted.
//!
//! Everything the crate says about one capture is a projection of the
//! record:
//!
//! * the conformance findings are the walk's verdicts, in capture order;
//!   an unjustified retransmission is an attempt with no cause;
//! * the damming and flood signatures are shapes of one request's
//!   attempts (`signature.rs`);
//! * the Fig. 1/5/8 timeline renders the walk frame by frame
//!   (`timeline.rs`);
//! * [`summarize`] is the walk's per-opcode counts.

use std::collections::BTreeMap;
use std::fmt;

use ibsim_event::SimTime;
use ibsim_fabric::{Capture, Captured, Direction};
use ibsim_verbs::{NakKind, Packet, PacketKind, Psn, Qpn, RecoveryKind};

use crate::finding::{Finding, RuleId};

/// Shortest interval after which a spontaneous retransmission is a
/// plausible transport (ACK) timeout. It sits below the smallest `T_o`
/// any profile can produce: the vendor floor `C_ack = 5` gives
/// `T_o ≈ 245 µs`.
const ACK_TIMEOUT_HINT: SimTime = SimTime::from_us(100);

/// Why a request was transmitted, in the order a debugging human would
/// check a retransmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Cause {
    /// Its first transmission.
    Fresh,
    /// A NAK arrived on the flow since the previous attempt.
    Nak,
    /// A request on the flow was silently lost since the previous
    /// attempt (go-back-N rolls back over healthy PSNs too).
    ObservedLoss,
    /// At least the ACK-timeout hint passed since the previous attempt.
    Timeout,
    /// Event-driven resume (selective repeat): a reply carrying this PSN
    /// arrived since the previous attempt yet left the request pending,
    /// so it was discarded at the ODP landing gate and the fault's
    /// resolution resumed the request. Only a backend without a blind
    /// stall tick earns it.
    Resume,
    /// Sent at the same instant as the flow's last retransmission with a
    /// cause of its own: a recovery batch's tail inherits the head's
    /// cause, even when its own first transmission postdates the
    /// triggering NAK.
    Batch,
}

/// One transmission of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Attempt {
    /// Capture timestamp.
    pub(crate) at: SimTime,
    /// Dropped in the fabric or ghosted at the HCA: never delivered.
    pub(crate) silent_loss: bool,
    /// What explains it; `None` when nothing in the capture does.
    pub(crate) cause: Option<Cause>,
}

/// What the responder answers a request with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Answer {
    Read,
    Atomic,
    Ack,
}

/// One (flow, PSN) and everything the capture shows of it.
pub(crate) struct Request {
    /// Index of its flow in [`Record::flows`].
    pub(crate) flow: usize,
    psn: Psn,
    /// Opcode of its first transmission.
    pub(crate) opcode: &'static str,
    answer: Answer,
    /// PSNs its fresh transmission consumed (a READ reserves one per
    /// response segment); 0 while it was only ever seen retransmitted.
    span: u32,
    /// Every transmission, in capture order.
    pub(crate) attempts: Vec<Attempt>,
    /// READ response segments received for it.
    pub(crate) read_responses: u64,
    /// Arrival of the latest ACK or response carrying its PSN.
    last_reply: Option<SimTime>,
    /// A NAK carried its PSN: the responder refused it (RNR) or received
    /// it out of order, and still expects it.
    nakd: bool,
}

/// One flow: the scalars the conformance rules need, its NAK arrivals
/// and its request index.
pub(crate) struct Flow {
    /// (local QP, remote QP).
    key: (Qpn, Qpn),
    /// Next fresh request PSN; `None` until the first.
    expected: Option<Psn>,
    last_nak: Option<SimTime>,
    last_silent_loss: Option<SimTime>,
    /// The latest retransmission with a cause other than [`Cause::Batch`].
    last_justified_retx: Option<SimTime>,
    /// Every NAK arrival; ascending once [`walk`] returns.
    pub(crate) naks: Vec<SimTime>,
    /// Index into [`Record::requests`] by PSN.
    requests: BTreeMap<u32, usize>,
}

/// The per-request record of one capture, built by [`Record::step`].
#[derive(Default)]
pub(crate) struct Record {
    recovery: RecoveryKind,
    flow_index: BTreeMap<(Qpn, Qpn), usize>,
    pub(crate) flows: Vec<Flow>,
    /// In first-transmission order.
    pub(crate) requests: Vec<Request>,
    /// The latest timestamp in the capture.
    pub(crate) horizon: SimTime,
    /// Conformance findings, in capture order.
    pub(crate) findings: Vec<Finding>,
    pub(crate) traffic: TrafficSummary,
}

/// Walks a whole capture under one backend's justification rules.
pub(crate) fn walk(cap: &Capture<Packet>, recovery: RecoveryKind) -> Record {
    let mut rec = Record::new(recovery);
    for r in cap {
        rec.step(r);
    }
    for flow in &mut rec.flows {
        flow.naks.sort_unstable();
    }
    rec
}

/// For a request: how many consecutive PSNs its fresh transmission
/// consumes and what the responder answers it with. `None` for replies.
fn request_shape(kind: &PacketKind) -> Option<(u32, Answer)> {
    match kind {
        PacketKind::ReadRequest { resp_packets, .. } => {
            Some(((*resp_packets).max(1), Answer::Read))
        }
        PacketKind::AtomicRequest { .. } => Some((1, Answer::Atomic)),
        PacketKind::WriteRequest { .. } | PacketKind::Send { .. } => Some((1, Answer::Ack)),
        PacketKind::ReadResponse { .. }
        | PacketKind::AtomicResponse { .. }
        | PacketKind::Ack
        | PacketKind::Nak(_) => None,
    }
}

impl Record {
    pub(crate) fn new(recovery: RecoveryKind) -> Record {
        Record {
            recovery,
            ..Record::default()
        }
    }

    /// Reads the next frame of the capture. Returns the attempt it was
    /// when it is a transmitted request.
    pub(crate) fn step(&mut self, r: &Captured<Packet>) -> Option<Attempt> {
        let p = &r.payload;
        self.horizon = self.horizon.max(r.time);
        self.traffic.count(p);
        match (r.direction, request_shape(&p.kind)) {
            (Direction::Tx, Some(shape)) => return Some(self.attempt(r, shape)),
            (Direction::Rx, None) => self.reply(r.time, p),
            // Responder-side traffic: sent replies, received requests.
            (Direction::Tx, None) | (Direction::Rx, Some(_)) => {}
        }
        None
    }

    fn flow(&mut self, key: (Qpn, Qpn)) -> usize {
        let next = self.flows.len();
        let f = *self.flow_index.entry(key).or_insert(next);
        if f == next {
            self.flows.push(Flow {
                key,
                expected: None,
                last_nak: None,
                last_silent_loss: None,
                last_justified_retx: None,
                naks: Vec::new(),
                requests: BTreeMap::new(),
            });
        }
        f
    }

    fn request(&self, f: usize, psn: Psn) -> Option<usize> {
        self.flows[f].requests.get(&psn.value()).copied()
    }

    /// Whether a fresh request's PSN span covers `psn`: the flow's
    /// nearest request at or below it, or its highest, whose span may
    /// wrap past 2^24.
    fn covers(&self, f: usize, psn: Psn) -> bool {
        let requests = &self.flows[f].requests;
        let covers = |(_, &i): (&u32, &usize)| {
            let r = &self.requests[i];
            psn.distance_from(r.psn) < r.span
        };
        requests
            .range(..=psn.value())
            .next_back()
            .is_some_and(covers)
            || requests.last_key_value().is_some_and(covers)
    }

    fn flag(&mut self, rule: RuleId, at: SimTime, f: usize, psn: Psn, message: String) {
        let key = self.flows[f].key;
        self.findings
            .push(Finding::violation(rule, at, key, psn.value(), message));
    }

    /// A violation on one request, for the projections.
    pub(crate) fn violation(
        &self,
        req: &Request,
        rule: RuleId,
        at: SimTime,
        msg: String,
    ) -> Finding {
        let key = self.flows[req.flow].key;
        Finding::violation(rule, at, key, req.psn.value(), msg)
    }

    fn attempt(&mut self, r: &Captured<Packet>, (span, answer): (u32, Answer)) -> Attempt {
        let (p, at) = (&r.payload, r.time);
        let f = self.flow((p.src_qp, p.dst_qp));
        let existing = self.request(f, p.psn);
        let cause = if p.retransmit {
            self.retransmit_cause(f, existing, at, p)
        } else {
            self.check_fresh(f, at, p, span);
            Some(Cause::Fresh)
        };
        if p.ghost && !self.recovery.ghost_quirks() {
            // The damming ghost window is a go-back-N engine quirk; the
            // backend under test claims it never opens.
            let message = format!(
                "{} ghosted at transmission under the `{}` backend, \
                 which never opens the ghost window",
                p.kind.opcode(),
                self.recovery
            );
            self.flag(RuleId::UnexpectedGhost, at, f, p.psn, message);
        }
        let attempt = Attempt {
            at,
            silent_loss: r.dropped || p.ghost,
            cause,
        };
        if attempt.silent_loss {
            self.flows[f].last_silent_loss = Some(at);
        }
        let i = existing.unwrap_or_else(|| {
            self.flows[f]
                .requests
                .insert(p.psn.value(), self.requests.len());
            self.requests.push(Request {
                flow: f,
                psn: p.psn,
                opcode: p.kind.opcode(),
                answer,
                span: 0,
                attempts: Vec::new(),
                read_responses: 0,
                last_reply: None,
                nakd: false,
            });
            self.requests.len() - 1
        });
        let req = &mut self.requests[i];
        if !p.retransmit {
            req.span = req.span.max(span);
        }
        req.attempts.push(attempt);
        attempt
    }

    /// PSN monotonicity and contiguity of a fresh request.
    fn check_fresh(&mut self, f: usize, at: SimTime, p: &Packet, span: u32) {
        let flow = &mut self.flows[f];
        // Resynchronise on what was actually sent so one hole is one
        // finding, not a cascade.
        let expected = flow.expected.replace(p.psn.add(span));
        let Some(expected) = expected.filter(|&e| e != p.psn) else {
            return;
        };
        let (rule, message) = if p.psn.precedes(expected) {
            (
                RuleId::PsnMonotonicity,
                format!(
                    "fresh {} reuses {} inside the consumed window (expected {})",
                    p.kind.opcode(),
                    p.psn,
                    expected
                ),
            )
        } else {
            (
                RuleId::PsnContiguity,
                format!(
                    "fresh {} skips from expected {} to {} leaving a {}-PSN hole",
                    p.kind.opcode(),
                    expected,
                    p.psn,
                    p.psn.distance_from(expected)
                ),
            )
        };
        self.flag(rule, at, f, p.psn, message);
    }

    /// The cause of a retransmission, flagging it when it has none.
    fn retransmit_cause(
        &mut self,
        f: usize,
        existing: Option<usize>,
        at: SimTime,
        p: &Packet,
    ) -> Option<Cause> {
        let Some(i) = existing else {
            let message = format!(
                "{} marked as retransmission but {} was never transmitted",
                p.kind.opcode(),
                p.psn
            );
            self.flag(RuleId::UnjustifiedRetransmit, at, f, p.psn, message);
            return None;
        };
        let req = &self.requests[i];
        let prev = req.attempts.last().map_or(at, |a| a.at);
        let flow = &mut self.flows[f];
        let since = |t: Option<SimTime>| t.is_some_and(|t| t >= prev && t <= at);
        let own = if since(flow.last_nak) {
            Some(Cause::Nak)
        } else if since(flow.last_silent_loss) {
            Some(Cause::ObservedLoss)
        } else if at - prev >= ACK_TIMEOUT_HINT {
            Some(Cause::Timeout)
        } else if !self.recovery.blind_stall_tick() && since(req.last_reply) {
            Some(Cause::Resume)
        } else {
            None
        };
        if own.is_some() {
            flow.last_justified_retx = Some(at);
            return own;
        }
        if flow.last_justified_retx == Some(at) {
            return Some(Cause::Batch);
        }
        let message = format!(
            "{} retransmitted {} after the previous attempt with no NAK, \
             no observed loss, and below the ACK-timeout hint ({})",
            p.kind.opcode(),
            at - prev,
            ACK_TIMEOUT_HINT
        );
        self.flag(RuleId::UnjustifiedRetransmit, at, f, p.psn, message);
        None
    }

    /// ACK / NAK / response matching on the requester's receive side.
    fn reply(&mut self, at: SimTime, p: &Packet) {
        // Viewed from the requester: the local QP is the destination.
        let f = self.flow((p.dst_qp, p.src_qp));
        let unmatched = match &p.kind {
            PacketKind::Ack => (!self.covers(f, p.psn)).then(|| {
                let message = format!("ACK for {} which no request consumed", p.psn);
                (RuleId::UnmatchedAck, p.psn, message)
            }),
            PacketKind::ReadResponse { req_psn, .. } => {
                let answer = self.request(f, *req_psn).map(|i| {
                    self.requests[i].read_responses += 1;
                    self.requests[i].answer
                });
                (answer != Some(Answer::Read)).then(|| {
                    let message = format!("READ response for {req_psn} with no READ request");
                    (RuleId::UnmatchedResponse, *req_psn, message)
                })
            }
            PacketKind::AtomicResponse { req_psn, .. } => {
                let answer = self.request(f, *req_psn).map(|i| self.requests[i].answer);
                (answer != Some(Answer::Atomic)).then(|| {
                    let message = format!("ATOMIC response for {req_psn} with no ATOMIC request");
                    (RuleId::UnmatchedResponse, *req_psn, message)
                })
            }
            PacketKind::Nak(kind) => return self.nak(f, at, p.psn, *kind),
            // `step` routes requests elsewhere.
            PacketKind::ReadRequest { .. }
            | PacketKind::WriteRequest { .. }
            | PacketKind::Send { .. }
            | PacketKind::AtomicRequest { .. } => return,
        };
        if let Some((rule, psn, message)) = unmatched {
            self.flag(rule, at, f, psn, message);
        }
        if let Some(i) = self.request(f, p.psn) {
            self.requests[i].last_reply = Some(at);
        }
    }

    fn nak(&mut self, f: usize, at: SimTime, psn: Psn, kind: NakKind) {
        if let NakKind::SequenceError { epsn } = kind {
            // The responder claims out-of-order arrival. In this capture
            // (which sees fabric drops and ghosts — strictly more than
            // real ibdump) that is only explicable if some request was
            // silently lost beforehand, or if the expected request was
            // itself NAK'd: an RNR-refused request leaves the responder
            // still expecting it, so any younger request transmitted
            // during the backoff draws a sequence error with no packet
            // ever lost.
            let refused = self.request(f, epsn).is_some_and(|i| self.requests[i].nakd);
            if self.flows[f].last_silent_loss.is_none() && !refused {
                let message = format!(
                    "sequence-error NAK (expecting {epsn}) with no preceding \
                     request loss on the flow"
                );
                self.flag(RuleId::UnjustifiedSeqNak, at, f, epsn, message);
            }
        }
        let flow = &mut self.flows[f];
        flow.last_nak = Some(at);
        flow.naks.push(at);
        if let Some(i) = self.request(f, psn) {
            self.requests[i].nakd = true;
        }
    }
}

/// Per-opcode traffic counts of one capture.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrafficSummary {
    /// Total frames in the capture.
    pub total: u64,
    /// Request packets (first transmissions).
    pub requests: u64,
    /// Retransmitted requests.
    pub retransmissions: u64,
    /// READ and ATOMIC response packets.
    pub responses: u64,
    /// ACKs.
    pub acks: u64,
    /// RNR NAKs.
    pub rnr_naks: u64,
    /// PSN sequence error NAKs.
    pub seq_naks: u64,
    /// Ghost frames (visible at the sender, never delivered).
    pub ghosts: u64,
}

impl TrafficSummary {
    fn count(&mut self, p: &Packet) {
        self.total += 1;
        self.ghosts += u64::from(p.ghost);
        match &p.kind {
            PacketKind::Ack => self.acks += 1,
            PacketKind::Nak(NakKind::Rnr { .. }) => self.rnr_naks += 1,
            PacketKind::Nak(NakKind::SequenceError { .. }) => self.seq_naks += 1,
            PacketKind::Nak(NakKind::RemoteAccess) => {}
            PacketKind::ReadResponse { .. } | PacketKind::AtomicResponse { .. } => {
                self.responses += 1
            }
            PacketKind::ReadRequest { .. }
            | PacketKind::WriteRequest { .. }
            | PacketKind::Send { .. }
            | PacketKind::AtomicRequest { .. } => {
                if p.retransmit {
                    self.retransmissions += 1;
                } else {
                    self.requests += 1;
                }
            }
        }
    }
}

impl fmt::Display for TrafficSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} frames: {} req (+{} retx), {} resp, {} ack, {} rnr-nak, {} seq-nak, {} ghost",
            self.total,
            self.requests,
            self.retransmissions,
            self.responses,
            self.acks,
            self.rnr_naks,
            self.seq_naks,
            self.ghosts
        )
    }
}

/// Counts a capture's packets per opcode class, in both directions.
///
/// §IX-A of the paper stresses that the pitfalls are hard to detect: they
/// produce no error codes and are invisible without raw packets. This is
/// the first look at a capture; [`lint_capture`](crate::lint_capture)
/// explains it.
///
/// # Examples
///
/// ```
/// use ibsim_analysis::summarize;
/// use ibsim_fabric::Capture;
/// use ibsim_verbs::Packet;
///
/// let cap: Capture<Packet> = Capture::new();
/// assert_eq!(summarize(&cap).total, 0);
/// ```
pub fn summarize(cap: &Capture<Packet>) -> TrafficSummary {
    walk(cap, RecoveryKind::default()).traffic
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibsim_event::{Engine, SimTime};
    use ibsim_fabric::LinkSpec;
    use ibsim_scenario::{run_scenario, Scenario};
    use ibsim_verbs::{Cluster, DeviceProfile, FetchAddWr, MrMode, QpConfig};

    /// How far any world in this file may run before it must have quiesced.
    const HORIZON: SimTime = SimTime::from_ms(10);

    fn traffic(sc: &Scenario) -> TrafficSummary {
        let run = run_scenario(sc);
        let cap = &run.captures[0];
        crate::reference::replay(cap, RecoveryKind::default());
        summarize(cap)
    }

    #[test]
    fn clean_run_counts_each_request_once() {
        let mut sc = Scenario::fig3_loop(16, 1, 100, SimTime::ZERO);
        (sc.client_odp, sc.server_odp) = (false, false);
        let s = traffic(&sc);
        assert_eq!(s.requests, 16);
        assert_eq!(s.retransmissions, 0);
        assert_eq!(s.ghosts, 0);
    }

    #[test]
    fn flood_run_retransmits_more_than_it_requests() {
        let s = traffic(&Scenario::flood_probe(64));
        assert!(s.retransmissions > s.requests, "{s}");
    }

    #[test]
    fn one_fetch_add_is_one_request_and_one_response() {
        let mut eng = Engine::new();
        let mut cl = Cluster::new(1);
        let a = cl.add_host("client", DeviceProfile::connectx4(LinkSpec::fdr()));
        let b = cl.add_host("server", DeviceProfile::connectx4(LinkSpec::fdr()));
        let remote = cl.alloc_mr(b, 4096, MrMode::Pinned);
        let local = cl.alloc_mr(a, 4096, MrMode::Pinned);
        cl.capture_enable(a);
        let (qp, _) = cl.connect_pair(&mut eng, a, b, QpConfig::default());
        cl.post(
            &mut eng,
            a,
            qp,
            FetchAddWr::new(local.key, remote.key).id(1),
        );
        eng.run(&mut cl, HORIZON).expect("the world quiesces");
        let cap = cl.capture(a);
        crate::reference::replay(cap, RecoveryKind::default());
        let s = summarize(cap);
        assert_eq!((s.total, s.requests, s.responses), (2, 1, 1), "{s}");
        assert!(walk(cap, RecoveryKind::default()).findings.is_empty());
    }

    #[test]
    fn summary_displays_counts() {
        let s = TrafficSummary {
            total: 10,
            requests: 4,
            retransmissions: 2,
            responses: 3,
            acks: 1,
            ..Default::default()
        };
        let text = s.to_string();
        assert!(text.contains("4 req (+2 retx)"));
        assert!(text.contains("10 frames"));
    }
}
