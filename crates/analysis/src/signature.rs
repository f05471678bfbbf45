//! The paper's two pitfalls as shapes of the request record.
//!
//! A damming or flood trace is often *protocol-legal* packet by packet
//! (every retransmission has a timeout behind it), yet the shape of one
//! request's attempts is pathological. The signatures encode what the
//! paper's authors saw in their `ibdump` captures:
//!
//! * **Damming (§V, Fig. 5/8):** a silently lost attempt (ghosted at the
//!   HCA or dropped in the fabric) followed by a NAK-free gap of at least
//!   [`DAMMING_MIN_STALL`] until the next attempt, or the end of the
//!   capture: nothing on the flow explains the wait, which only the ACK
//!   timeout ends.
//! * **Flood (§VI, Fig. 1 right):** one request sent at least
//!   [`FLOOD_MIN_TRANSMISSIONS`] times at a median gap inside
//!   [`FLOOD_CADENCE`], the blind ODP retry timer, while its responses
//!   keep arriving and being discarded.

use ibsim_event::SimTime;

use crate::finding::{Finding, RuleId};
use crate::record::Record;

/// The shortest NAK-free stall after a silent loss that is damming. The
/// paper's stalls run to hundreds of milliseconds; 20 ms cleanly
/// separates them from RNR waits (§V).
const DAMMING_MIN_STALL: SimTime = SimTime::from_ms(20);

/// The fewest transmissions of one request that make a flood storm. The
/// paper saw hundreds; five is already anomalous (§VI). At least two by
/// construction: the cadence is a gap between attempts.
const FLOOD_MIN_TRANSMISSIONS: usize = 5;

/// The inclusive band of retransmit cadences read as the blind ODP retry
/// timer (~0.5 ms on ConnectX-4, Fig. 1 right).
const FLOOD_CADENCE: (SimTime, SimTime) = (SimTime::from_us(100), SimTime::from_ms(2));

/// §V packet damming: every silently lost attempt followed by a NAK-free
/// gap of at least [`DAMMING_MIN_STALL`], in request order.
pub(crate) fn damming(rec: &Record) -> impl Iterator<Item = Finding> + '_ {
    rec.requests.iter().flat_map(move |req| {
        let flow = &rec.flows[req.flow];
        let attempts = &req.attempts;
        attempts.iter().enumerate().filter_map(move |(i, lost)| {
            if !lost.silent_loss {
                return None;
            }
            let next = attempts.get(i + 1).map(|a| a.at);
            let end = next.unwrap_or(rec.horizon);
            let gap = end - lost.at;
            let first_nak = flow.naks.partition_point(|&t| t <= lost.at);
            let nak_free = flow.naks.get(first_nak).is_none_or(|&t| t > end);
            if gap < DAMMING_MIN_STALL || !nak_free {
                return None;
            }
            let message = if next.is_some() {
                format!(
                    "{} silently lost at {} then dammed for {} until the \
                     ACK-timeout retransmission",
                    req.opcode, lost.at, gap
                )
            } else {
                format!(
                    "{} silently lost at {} and never retransmitted within \
                     the capture ({} of silence)",
                    req.opcode, lost.at, gap
                )
            };
            Some(rec.violation(req, RuleId::DammingSignature, lost.at, message))
        })
    })
}

/// §VI packet flood: every request sent at least
/// [`FLOOD_MIN_TRANSMISSIONS`] times whose median gap falls in
/// [`FLOOD_CADENCE`], in request order.
pub(crate) fn floods(rec: &Record) -> impl Iterator<Item = Finding> + '_ {
    rec.requests.iter().filter_map(|req| {
        let attempts = &req.attempts;
        let n = attempts.len();
        if n < FLOOD_MIN_TRANSMISSIONS {
            return None;
        }
        let mut gaps: Vec<SimTime> = attempts.windows(2).map(|w| w[1].at - w[0].at).collect();
        gaps.sort_unstable();
        let median = gaps[gaps.len() / 2];
        let (lo, hi) = FLOOD_CADENCE;
        if median < lo || median > hi {
            return None;
        }
        let (first, span) = (attempts[0].at, attempts[n - 1].at - attempts[0].at);
        let message = format!(
            "request transmitted {n} times over {span} at ~{median} cadence \
             ({} response(s) received and discarded meanwhile)",
            req.read_responses
        );
        Some(rec.violation(req, RuleId::FloodSignature, first, message))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{nak_rnr, read_req, read_resp, replayed, rx, tx, tx_ghost, tx_retx};
    use crate::LintReport;
    use ibsim_fabric::Capture;
    use ibsim_verbs::Packet;

    /// The damming findings of a capture, replayed against the reference.
    fn damming_of(cap: &Capture<Packet>) -> LintReport {
        LintReport {
            findings: damming(&replayed(cap, Default::default())).collect(),
        }
    }

    /// The flood findings of a capture, replayed against the reference.
    fn floods_of(cap: &Capture<Packet>) -> LintReport {
        LintReport {
            findings: floods(&replayed(cap, Default::default())).collect(),
        }
    }

    #[test]
    fn ghost_then_long_silence_is_damming() {
        let mut cap = Capture::new();
        cap.enable();
        tx_ghost(&mut cap, 1_000_000, read_req(0, 1));
        // ~500 ms of nothing, then the timeout retransmission.
        tx_retx(&mut cap, 500_000_000, read_req(0, 1));
        let report = damming_of(&cap);
        assert_eq!(report.count(RuleId::DammingSignature), 1, "{report}");
        let f = report.by_rule(RuleId::DammingSignature).next().unwrap();
        assert!(f.message.contains("dammed"), "{}", f.message);
    }

    #[test]
    fn unrecovered_ghost_is_damming_too() {
        let mut cap = Capture::new();
        cap.enable();
        tx_ghost(&mut cap, 1_000_000, read_req(0, 1));
        // Keep the capture horizon far past the loss via another flow's
        // healthy request.
        let mut other = read_req(0, 1);
        other.src_qp = ibsim_verbs::Qpn(99);
        tx(&mut cap, 300_000_000, other);
        let report = damming_of(&cap);
        assert_eq!(report.count(RuleId::DammingSignature), 1, "{report}");
        assert!(report.findings[0].message.contains("never retransmitted"));
    }

    #[test]
    fn rnr_wait_is_not_damming() {
        let mut cap = Capture::new();
        cap.enable();
        tx_ghost(&mut cap, 1_000_000, read_req(0, 1));
        rx(&mut cap, 2_000_000, nak_rnr());
        tx_retx(&mut cap, 500_000_000, read_req(0, 1));
        let report = damming_of(&cap);
        assert_eq!(report.count(RuleId::DammingSignature), 0, "{report}");
    }

    #[test]
    fn short_gap_is_not_damming() {
        let mut cap = Capture::new();
        cap.enable();
        tx_ghost(&mut cap, 1_000_000, read_req(0, 1));
        tx_retx(&mut cap, 2_000_000, read_req(0, 1)); // 1 ms: below threshold
        assert!(damming_of(&cap).is_clean());
    }

    #[test]
    fn blind_cadence_storm_is_flood() {
        let mut cap = Capture::new();
        cap.enable();
        tx(&mut cap, 0, read_req(0, 1));
        for i in 1..8u64 {
            // 0.5 ms cadence with the response arriving (and discarded).
            rx(&mut cap, i * 500_000 - 100_000, read_resp(0, 0));
            tx_retx(&mut cap, i * 500_000, read_req(0, 1));
        }
        let report = floods_of(&cap);
        assert_eq!(report.count(RuleId::FloodSignature), 1, "{report}");
        let f = &report.findings[0];
        assert!(f.message.contains("8 times"), "{}", f.message);
        assert!(f.message.contains("7 response(s)"), "{}", f.message);
    }

    #[test]
    fn few_retransmissions_are_not_flood() {
        let mut cap = Capture::new();
        cap.enable();
        tx(&mut cap, 0, read_req(0, 1));
        for i in 1..4u64 {
            tx_retx(&mut cap, i * 500_000, read_req(0, 1));
        }
        assert!(floods_of(&cap).is_clean());
    }

    #[test]
    fn slow_timeout_retries_are_not_flood() {
        // Eight retries at 100 ms cadence: persistent loss, not the blind
        // ODP timer.
        let mut cap = Capture::new();
        cap.enable();
        tx(&mut cap, 0, read_req(0, 1));
        for i in 1..8u64 {
            tx_retx(&mut cap, i * 100_000_000, read_req(0, 1));
        }
        assert!(floods_of(&cap).is_clean());
    }
}
