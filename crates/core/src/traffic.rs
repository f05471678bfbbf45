//! Per-opcode traffic counts of a packet capture.
//!
//! §IX-A of the paper stresses that the pitfalls are "problematic for the
//! difficulty of the detection": they produce no error codes and are
//! invisible without raw packets. [`summarize`] is the first look at a
//! capture — how many requests, retransmissions, responses, NAKs and
//! ghosts. The packet-level *signatures* of damming and flood are the
//! trace linter's: `ibsim_analysis::lint_capture` reports them as
//! `DammingSignature` / `FloodSignature` findings.

use std::fmt;

use ibsim_fabric::Capture;
use ibsim_verbs::{NakKind, Packet, PacketKind};

/// Per-opcode traffic counts of one capture.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TrafficSummary {
    /// Total frames in the capture.
    pub total: u64,
    /// Request packets (first transmissions).
    pub requests: u64,
    /// Retransmitted requests.
    pub retransmissions: u64,
    /// READ response packets.
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

/// Counts packets per opcode class.
pub fn summarize(cap: &Capture<Packet>) -> TrafficSummary {
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
            _ => {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::microbench::{run_microbench, MicrobenchConfig, OdpMode};

    #[test]
    fn clean_run_counts_each_request_once() {
        let cfg = MicrobenchConfig {
            odp: OdpMode::None,
            num_ops: 16,
            capture: true,
            ..Default::default()
        };
        let run = run_microbench(&cfg);
        let s = summarize(run.cluster.capture(run.client));
        assert_eq!(s.requests, 16);
        assert_eq!(s.retransmissions, 0);
        assert_eq!(s.ghosts, 0);
    }

    #[test]
    fn flood_run_retransmits_more_than_it_requests() {
        let cfg = MicrobenchConfig {
            size: 32,
            num_ops: 64,
            num_qps: 64,
            odp: OdpMode::ClientSide,
            cack: 18,
            capture: true,
            ..Default::default()
        };
        let run = run_microbench(&cfg);
        let s = summarize(run.cluster.capture(run.client));
        assert!(s.retransmissions > s.requests, "{s}");
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
