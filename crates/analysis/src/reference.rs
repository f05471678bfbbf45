//! The four capture walks the request record replaced, kept verbatim as
//! the reference its projections replay against: the `FlowState` linter,
//! the two signature detectors, the Fig. 1/5/8 annotator and the traffic
//! count. Their thresholds are the values `LintConfig` used to default
//! to.

use std::collections::{BTreeMap, BTreeSet};

use ibsim_event::SimTime;
use ibsim_fabric::{Capture, Direction};
use ibsim_verbs::{NakKind, Packet, PacketKind, Psn, Qpn, RecoveryKind};

use crate::finding::{Finding, LintReport, RuleId, Severity};
use crate::TrafficSummary;

/// The five-field linter configuration, at its old defaults.
struct LintConfig {
    ack_timeout_hint: SimTime,
    damming_min_stall: SimTime,
    flood_min_transmissions: u64,
    flood_cadence: (SimTime, SimTime),
    recovery: RecoveryKind,
}

impl LintConfig {
    fn new(recovery: RecoveryKind) -> Self {
        LintConfig {
            ack_timeout_hint: SimTime::from_us(100),
            damming_min_stall: SimTime::from_ms(20),
            flood_min_transmissions: 5,
            flood_cadence: (SimTime::from_us(100), SimTime::from_ms(2)),
            recovery,
        }
    }
}

/// Requester-side linter state for one flow (local QP, remote QP).
#[derive(Default)]
struct FlowState {
    expected: Option<Psn>,
    consumed: BTreeSet<u32>,
    read_psns: BTreeSet<u32>,
    atomic_psns: BTreeSet<u32>,
    last_tx: BTreeMap<u32, SimTime>,
    last_nak_rx: Option<SimTime>,
    last_silent_loss: Option<SimTime>,
    nak_psns: BTreeSet<u32>,
    last_justified_retx: Option<SimTime>,
    last_response_rx: BTreeMap<u32, SimTime>,
}

fn psn_span(kind: &PacketKind) -> u32 {
    match kind {
        PacketKind::ReadRequest { resp_packets, .. } => (*resp_packets).max(1),
        PacketKind::WriteRequest { .. }
        | PacketKind::Send { .. }
        | PacketKind::AtomicRequest { .. } => 1,
        PacketKind::ReadResponse { .. }
        | PacketKind::AtomicResponse { .. }
        | PacketKind::Ack
        | PacketKind::Nak(_) => 1,
    }
}

/// The old `lint_capture`: the `FlowState` walk, then both detectors.
pub(crate) fn lint_capture(cap: &Capture<Packet>, recovery: RecoveryKind) -> LintReport {
    let cfg = &LintConfig::new(recovery);
    let mut report = LintReport::default();
    let mut flows: BTreeMap<(Qpn, Qpn), FlowState> = BTreeMap::new();

    for r in cap {
        let p = &r.payload;
        match r.direction {
            Direction::Tx if p.kind.is_request() => {
                let key = (p.src_qp, p.dst_qp);
                let flow = flows.entry(key).or_default();
                if p.retransmit {
                    check_retransmit(&mut report, flow, key, r.time, p, cfg);
                } else {
                    check_fresh_request(&mut report, flow, key, r.time, p);
                }
                match &p.kind {
                    PacketKind::ReadRequest { .. } => {
                        flow.read_psns.insert(p.psn.value());
                    }
                    PacketKind::AtomicRequest { .. } => {
                        flow.atomic_psns.insert(p.psn.value());
                    }
                    PacketKind::WriteRequest { .. }
                    | PacketKind::Send { .. }
                    | PacketKind::ReadResponse { .. }
                    | PacketKind::AtomicResponse { .. }
                    | PacketKind::Ack
                    | PacketKind::Nak(_) => {}
                }
                if p.ghost && !cfg.recovery.ghost_quirks() {
                    report.findings.push(Finding {
                        rule: RuleId::UnexpectedGhost,
                        severity: Severity::Violation,
                        at: r.time,
                        flow: Some(key),
                        psn: Some(p.psn.value()),
                        message: format!(
                            "{} ghosted at transmission under the `{}` backend, \
                             which never opens the ghost window",
                            p.kind.opcode(),
                            cfg.recovery
                        ),
                    });
                }
                if r.dropped || p.ghost {
                    flow.last_silent_loss = Some(r.time);
                }
                flow.last_tx.insert(p.psn.value(), r.time);
            }
            Direction::Rx => {
                let key = (p.dst_qp, p.src_qp);
                let flow = flows.entry(key).or_default();
                check_response(&mut report, flow, key, r.time, p);
            }
            Direction::Tx => {}
        }
    }

    report.merge(detect_damming_signature(cap, cfg));
    report.merge(detect_flood_signature(cap, cfg));
    report
}

fn check_fresh_request(
    report: &mut LintReport,
    flow: &mut FlowState,
    key: (Qpn, Qpn),
    at: SimTime,
    p: &Packet,
) {
    let span = psn_span(&p.kind);
    if let Some(expected) = flow.expected {
        if p.psn != expected {
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
            report.findings.push(Finding {
                rule,
                severity: Severity::Violation,
                at,
                flow: Some(key),
                psn: Some(p.psn.value()),
                message,
            });
        }
    }
    flow.expected = Some(p.psn.add(span));
    for i in 0..span {
        flow.consumed.insert(p.psn.add(i).value());
    }
}

fn check_retransmit(
    report: &mut LintReport,
    flow: &mut FlowState,
    key: (Qpn, Qpn),
    at: SimTime,
    p: &Packet,
    cfg: &LintConfig,
) {
    let psn = p.psn.value();
    let Some(&prev) = flow.last_tx.get(&psn) else {
        report.findings.push(Finding {
            rule: RuleId::UnjustifiedRetransmit,
            severity: Severity::Violation,
            at,
            flow: Some(key),
            psn: Some(psn),
            message: format!(
                "{} marked as retransmission but {} was never transmitted",
                p.kind.opcode(),
                p.psn
            ),
        });
        return;
    };
    let nak_explains = flow.last_nak_rx.is_some_and(|t| t >= prev && t <= at);
    let loss_explains = flow.last_silent_loss.is_some_and(|t| t >= prev && t <= at);
    let timeout_plausible = at - prev >= cfg.ack_timeout_hint;
    let batch_explains = flow.last_justified_retx == Some(at);
    let resume_explains = !cfg.recovery.blind_stall_tick()
        && flow
            .last_response_rx
            .get(&psn)
            .is_some_and(|&t| t >= prev && t <= at);
    if nak_explains || loss_explains || timeout_plausible || resume_explains {
        flow.last_justified_retx = Some(at);
    }
    if !nak_explains && !loss_explains && !timeout_plausible && !batch_explains && !resume_explains
    {
        report.findings.push(Finding {
            rule: RuleId::UnjustifiedRetransmit,
            severity: Severity::Violation,
            at,
            flow: Some(key),
            psn: Some(psn),
            message: format!(
                "{} retransmitted {} after the previous attempt with no NAK, \
                 no observed loss, and below the ACK-timeout hint ({})",
                p.kind.opcode(),
                at - prev,
                cfg.ack_timeout_hint
            ),
        });
    }
}

fn check_response(
    report: &mut LintReport,
    flow: &mut FlowState,
    key: (Qpn, Qpn),
    at: SimTime,
    p: &Packet,
) {
    match &p.kind {
        PacketKind::Ack if !flow.consumed.contains(&p.psn.value()) => {
            report.findings.push(Finding {
                rule: RuleId::UnmatchedAck,
                severity: Severity::Violation,
                at,
                flow: Some(key),
                psn: Some(p.psn.value()),
                message: format!("ACK for {} which no request consumed", p.psn),
            });
        }
        PacketKind::ReadResponse { req_psn, .. } if !flow.read_psns.contains(&req_psn.value()) => {
            report.findings.push(Finding {
                rule: RuleId::UnmatchedResponse,
                severity: Severity::Violation,
                at,
                flow: Some(key),
                psn: Some(req_psn.value()),
                message: format!("READ response for {req_psn} with no READ request"),
            });
        }
        PacketKind::AtomicResponse { req_psn, .. }
            if !flow.atomic_psns.contains(&req_psn.value()) =>
        {
            report.findings.push(Finding {
                rule: RuleId::UnmatchedResponse,
                severity: Severity::Violation,
                at,
                flow: Some(key),
                psn: Some(req_psn.value()),
                message: format!("ATOMIC response for {req_psn} with no ATOMIC request"),
            });
        }
        PacketKind::Nak(kind) => {
            if let NakKind::SequenceError { epsn } = kind {
                let refused_explains = flow.nak_psns.contains(&epsn.value());
                if flow.last_silent_loss.is_none() && !refused_explains {
                    report.findings.push(Finding {
                        rule: RuleId::UnjustifiedSeqNak,
                        severity: Severity::Violation,
                        at,
                        flow: Some(key),
                        psn: Some(epsn.value()),
                        message: format!(
                            "sequence-error NAK (expecting {epsn}) with no preceding \
                             request loss on the flow"
                        ),
                    });
                }
            }
            flow.last_nak_rx = Some(at);
            flow.nak_psns.insert(p.psn.value());
        }
        PacketKind::Ack
        | PacketKind::ReadResponse { .. }
        | PacketKind::AtomicResponse { .. }
        | PacketKind::ReadRequest { .. }
        | PacketKind::WriteRequest { .. }
        | PacketKind::Send { .. }
        | PacketKind::AtomicRequest { .. } => {}
    }
    match &p.kind {
        PacketKind::Ack => {
            flow.last_response_rx.insert(p.psn.value(), at);
        }
        PacketKind::ReadResponse { .. } | PacketKind::AtomicResponse { .. } => {
            flow.last_response_rx.insert(p.psn.value(), at);
        }
        PacketKind::Nak(_)
        | PacketKind::ReadRequest { .. }
        | PacketKind::WriteRequest { .. }
        | PacketKind::Send { .. }
        | PacketKind::AtomicRequest { .. } => {}
    }
}

struct Attempt {
    at: SimTime,
    silent_loss: bool,
    opcode: &'static str,
}

fn detect_damming_signature(cap: &Capture<Packet>, cfg: &LintConfig) -> LintReport {
    let mut report = LintReport::default();
    let mut attempts: BTreeMap<(Qpn, Qpn, u32), Vec<Attempt>> = BTreeMap::new();
    let mut naks: BTreeMap<(Qpn, Qpn), Vec<SimTime>> = BTreeMap::new();
    let mut order: Vec<(Qpn, Qpn, u32)> = Vec::new();
    let mut horizon = SimTime::ZERO;

    for r in cap {
        let p = &r.payload;
        horizon = horizon.max(r.time);
        match r.direction {
            Direction::Tx if p.kind.is_request() => {
                let key = (p.src_qp, p.dst_qp, p.psn.value());
                let entry = attempts.entry(key).or_default();
                if entry.is_empty() {
                    order.push(key);
                }
                entry.push(Attempt {
                    at: r.time,
                    silent_loss: r.dropped || p.ghost,
                    opcode: p.kind.opcode(),
                });
            }
            Direction::Rx => {
                if matches!(p.kind, PacketKind::Nak(_)) {
                    naks.entry((p.dst_qp, p.src_qp)).or_default().push(r.time);
                }
            }
            Direction::Tx => {}
        }
    }

    for key in order {
        let (src_qp, dst_qp, psn) = key;
        let tries = &attempts[&key];
        let flow_naks = naks.get(&(src_qp, dst_qp));
        let nak_between =
            |a: SimTime, b: SimTime| flow_naks.is_some_and(|v| v.iter().any(|&t| t > a && t <= b));
        for (i, attempt) in tries.iter().enumerate() {
            if !attempt.silent_loss {
                continue;
            }
            let (end, recovered) = match tries.get(i + 1) {
                Some(next) => (next.at, true),
                None => (horizon, false),
            };
            let gap = end - attempt.at;
            if gap >= cfg.damming_min_stall && !nak_between(attempt.at, end) {
                let message = if recovered {
                    format!(
                        "{} silently lost at {} then dammed for {} until the \
                         ACK-timeout retransmission",
                        attempt.opcode, attempt.at, gap
                    )
                } else {
                    format!(
                        "{} silently lost at {} and never retransmitted within \
                         the capture ({} of silence)",
                        attempt.opcode, attempt.at, gap
                    )
                };
                report.findings.push(Finding {
                    rule: RuleId::DammingSignature,
                    severity: Severity::Violation,
                    at: attempt.at,
                    flow: Some((src_qp, dst_qp)),
                    psn: Some(psn),
                    message,
                });
            }
        }
    }
    report
}

fn detect_flood_signature(cap: &Capture<Packet>, cfg: &LintConfig) -> LintReport {
    let mut report = LintReport::default();
    let mut attempts: BTreeMap<(Qpn, Qpn, u32), Vec<SimTime>> = BTreeMap::new();
    let mut responses: BTreeMap<(Qpn, Qpn, u32), u64> = BTreeMap::new();
    let mut order: Vec<(Qpn, Qpn, u32)> = Vec::new();

    for r in cap {
        let p = &r.payload;
        match r.direction {
            Direction::Tx if p.kind.is_request() => {
                let key = (p.src_qp, p.dst_qp, p.psn.value());
                let entry = attempts.entry(key).or_default();
                if entry.is_empty() {
                    order.push(key);
                }
                entry.push(r.time);
            }
            Direction::Rx => {
                if let PacketKind::ReadResponse { req_psn, .. } = &p.kind {
                    *responses
                        .entry((p.dst_qp, p.src_qp, req_psn.value()))
                        .or_default() += 1;
                }
            }
            Direction::Tx => {}
        }
    }

    let (lo, hi) = cfg.flood_cadence;
    for key in order {
        let times = &attempts[&key];
        let n = times.len() as u64;
        if n < cfg.flood_min_transmissions {
            continue;
        }
        let mut gaps: Vec<SimTime> = times.windows(2).map(|w| w[1] - w[0]).collect();
        gaps.sort_unstable();
        let median = gaps[gaps.len() / 2];
        if median < lo || median > hi {
            continue;
        }
        let (src_qp, dst_qp, psn) = key;
        let resp = responses.get(&key).copied().unwrap_or(0);
        let span = *times.last().expect("invariant: key has an attempt") - times[0];
        report.findings.push(Finding {
            rule: RuleId::FloodSignature,
            severity: Severity::Violation,
            at: times[0],
            flow: Some((src_qp, dst_qp)),
            psn: Some(psn),
            message: format!(
                "request transmitted {n} times over {span} at ~{median} cadence \
                 ({resp} response(s) received and discarded meanwhile)"
            ),
        });
    }
    report
}

enum WorkflowEvent {
    Packet { at: SimTime, line: String },
    Note { at: SimTime, text: String },
}

fn annotate_workflow(cap: &Capture<Packet>, timeout_floor: SimTime) -> Vec<WorkflowEvent> {
    let mut events = Vec::new();
    let mut post_count = 0u32;
    let mut last_rnr: Option<SimTime> = None;
    let mut last_activity = SimTime::ZERO;

    for r in cap {
        let is_tx_request = r.direction == Direction::Tx && r.payload.kind.is_request();
        if is_tx_request && !r.payload.retransmit {
            post_count += 1;
            events.push(WorkflowEvent::Note {
                at: r.time,
                text: format!("Post {} request", ordinal(post_count)),
            });
        }
        if is_tx_request && r.payload.retransmit {
            let gap = r.time - last_activity;
            if let Some(rnr_at) = last_rnr {
                let wait = r.time - rnr_at;
                events.push(WorkflowEvent::Note {
                    at: r.time,
                    text: format!("RNR NAK delay (about {wait})"),
                });
                last_rnr = None;
            } else if gap >= timeout_floor {
                events.push(WorkflowEvent::Note {
                    at: r.time,
                    text: format!("Timeout (about {gap})"),
                });
            }
        }
        if r.direction == Direction::Rx {
            if let PacketKind::Nak(NakKind::Rnr { .. }) = r.payload.kind {
                last_rnr = Some(r.time);
            }
        }
        let mut line = format!(
            "{} {} {}",
            match r.direction {
                Direction::Tx => "->",
                Direction::Rx => "<-",
            },
            r.payload.kind.opcode(),
            r.payload.psn
        );
        if r.payload.ghost {
            line.push_str("   [lost to the damming flaw]");
        } else if r.payload.retransmit {
            line.push_str("   [retransmission]");
        }
        events.push(WorkflowEvent::Packet { at: r.time, line });
        last_activity = r.time;
    }
    events
}

/// The old `render_workflow(&annotate_workflow(cap, 50 ms))`.
pub(crate) fn render_workflow(cap: &Capture<Packet>) -> String {
    let mut out = String::new();
    for e in annotate_workflow(cap, SimTime::from_ms(50)) {
        match e {
            WorkflowEvent::Note { at, text } => {
                out.push_str(&format!("{:>12}  == {text} ==\n", at.to_string()));
            }
            WorkflowEvent::Packet { at, line } => {
                out.push_str(&format!("{:>12}  {line}\n", at.to_string()));
            }
        }
    }
    out
}

fn ordinal(n: u32) -> String {
    match n {
        1 => "1st".into(),
        2 => "2nd".into(),
        3 => "3rd".into(),
        n => format!("{n}th"),
    }
}

/// The old `summarize`. Its catch-all arm (spelled out here) counted an
/// `ATOMIC_ACK` as a request, or as a retransmission when replayed.
fn summarize(cap: &Capture<Packet>) -> TrafficSummary {
    let mut s = TrafficSummary::default();
    for r in cap {
        s.total += 1;
        if r.payload.ghost {
            s.ghosts += 1;
        }
        match &r.payload.kind {
            PacketKind::Ack => s.acks += 1,
            PacketKind::Nak(NakKind::Rnr { .. }) => s.rnr_naks += 1,
            PacketKind::Nak(NakKind::SequenceError { .. }) => s.seq_naks += 1,
            PacketKind::Nak(_) => {}
            PacketKind::ReadResponse { .. } => s.responses += 1,
            PacketKind::AtomicResponse { .. }
            | PacketKind::ReadRequest { .. }
            | PacketKind::WriteRequest { .. }
            | PacketKind::Send { .. }
            | PacketKind::AtomicRequest { .. } => {
                if r.payload.retransmit {
                    s.retransmissions += 1;
                } else {
                    s.requests += 1;
                }
            }
        }
    }
    s
}

/// Replays every projection of the record against its reference walk on
/// one capture: the lint report (findings, order and text), the rendered
/// timeline, and the traffic count once the `ATOMIC_ACK` fix is applied
/// to the reference.
pub(crate) fn replay(cap: &Capture<Packet>, recovery: RecoveryKind) {
    let cfg = crate::LintConfig { recovery };
    assert_eq!(crate::lint_capture(cap, &cfg), lint_capture(cap, recovery));
    assert_eq!(crate::render_workflow(cap), render_workflow(cap));
    let mut expected = summarize(cap);
    for r in cap {
        if let PacketKind::AtomicResponse { .. } = r.payload.kind {
            expected.responses += 1;
            if r.payload.retransmit {
                expected.retransmissions -= 1;
            } else {
                expected.requests -= 1;
            }
        }
    }
    assert_eq!(crate::summarize(cap), expected);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibsim_scenario::{paper_corpus, random_scenario, run_scenario, Prefetch, Scenario};

    fn replay_scenarios(scenarios: &[Scenario]) -> usize {
        let mut frames = 0;
        for sc in scenarios {
            let run = run_scenario(sc);
            for cap in &run.captures {
                replay(cap, sc.recovery);
                frames += cap.len();
            }
        }
        frames
    }

    #[test]
    fn projections_replay_the_paper_corpus() {
        assert!(replay_scenarios(&paper_corpus()) > 0);
    }

    #[test]
    fn projections_replay_256_generated_seeds() {
        let seeds: Vec<Scenario> = (0..256).map(random_scenario).collect();
        assert!(replay_scenarios(&seeds) > 0);
    }

    #[test]
    fn projections_replay_the_figure_and_probe_captures() {
        let (client, server) = ((true, false), (false, true));
        let fig3 = |ops, qps, size, interval, odp| {
            let mut sc = Scenario::fig3_loop(ops, qps, size, interval);
            (sc.client_odp, sc.server_odp) = odp;
            sc
        };
        // Fig. 8: the third READ's NAK rescues the dammed second.
        let mut fig8 = fig3(3, 1, 100, SimTime::from_us(350), client);
        fig8.prefetch = Prefetch::AllButFirst;
        let specs = [
            fig3(1, 1, 100, SimTime::ZERO, server),
            fig3(1, 1, 100, SimTime::ZERO, client),
            fig3(2, 1, 100, SimTime::from_ms(1), server),
            fig3(2, 1, 100, SimTime::from_us(300), client),
            fig8,
            Scenario::damming_probe(),
            Scenario::flood_probe(128),
        ];
        let captures = specs.map(|sc| {
            let [client, _] = run_scenario(&sc).captures;
            client
        });
        for cap in &captures {
            for kind in RecoveryKind::ALL {
                replay(cap, kind);
            }
        }
        let flood = &captures[6];
        assert!(crate::lint_capture(flood, &Default::default()).count(RuleId::FloodSignature) > 0);
    }
}
