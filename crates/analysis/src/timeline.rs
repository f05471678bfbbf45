//! The Fig. 1/5/8 workflow timeline: the capture walk rendered frame by
//! frame the way the paper's figures draw a capture, with posts, waits,
//! timeouts and losses called out between the packets.

use std::fmt::Write as _;

use ibsim_event::SimTime;
use ibsim_fabric::{Capture, Direction};
use ibsim_verbs::{NakKind, Packet, PacketKind, RecoveryKind};

use crate::record::{Cause, Record};

/// A silent gap at least this long, ended by a retransmission, is
/// called a timeout. The ConnectX-4/5 timeout floors are 500 and 30 ms;
/// RNR waits are a few milliseconds (Fig. 2, Fig. 1 left).
const TIMEOUT_FLOOR: SimTime = SimTime::from_ms(50);

/// Renders a client-side capture with the paper's workflow callouts:
///
/// * `Post nth request` on each first transmission of a request,
/// * `RNR NAK delay (about X)` for the wait between an RNR NAK and the
///   retransmission it gates,
/// * `Timeout (about X)` for a silent gap of at least 50 ms ended by a
///   retransmission,
/// * `lost to the damming flaw` on ghost frames.
///
/// # Examples
///
/// ```
/// use ibsim_analysis::render_workflow;
/// use ibsim_fabric::Capture;
/// use ibsim_verbs::Packet;
///
/// let cap: Capture<Packet> = Capture::new();
/// assert!(render_workflow(&cap).is_empty());
/// ```
pub fn render_workflow(cap: &Capture<Packet>) -> String {
    let mut walk = Record::new(RecoveryKind::default());
    let mut out = String::new();
    let mut posts = 0u32;
    let mut last_rnr: Option<SimTime> = None;
    let mut last_activity = SimTime::ZERO;
    for r in cap {
        let at = r.time;
        let note = match walk.step(r).map(|a| a.cause) {
            Some(Some(Cause::Fresh)) => {
                posts += 1;
                Some(format!("Post {} request", ordinal(posts)))
            }
            Some(_) => match last_rnr.take() {
                Some(rnr) => Some(format!("RNR NAK delay (about {})", at - rnr)),
                None => {
                    let gap = at - last_activity;
                    (gap >= TIMEOUT_FLOOR).then(|| format!("Timeout (about {gap})"))
                }
            },
            None => None,
        };
        if let Some(note) = note {
            let _ = writeln!(out, "{at:>12}  == {note} ==");
        }
        let p = &r.payload;
        if let (Direction::Rx, PacketKind::Nak(NakKind::Rnr { .. })) = (r.direction, &p.kind) {
            last_rnr = Some(at);
        }
        let arrow = match r.direction {
            Direction::Tx => "->",
            Direction::Rx => "<-",
        };
        let mark = if p.ghost {
            "   [lost to the damming flaw]"
        } else if p.retransmit {
            "   [retransmission]"
        } else {
            ""
        };
        let (opcode, psn) = (p.kind.opcode(), p.psn);
        let _ = writeln!(out, "{at:>12}  {arrow} {opcode} {psn}{mark}");
        last_activity = at;
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

#[cfg(test)]
mod tests {
    use super::*;
    use ibsim_scenario::{run_scenario, Prefetch, Scenario};

    fn render(sc: &Scenario) -> (bool, String) {
        let run = run_scenario(sc);
        let cap = &run.captures[0];
        crate::reference::replay(cap, RecoveryKind::default());
        (run.client_stats.timeouts > 0, render_workflow(cap))
    }

    #[test]
    fn fig1_style_annotations() {
        let mut sc = Scenario::fig3_loop(1, 1, 100, SimTime::ZERO);
        sc.client_odp = false;
        let (_, text) = render(&sc);
        assert!(text.contains("== Post 1st request =="), "{text}");
        assert!(text.contains("RNR NAK delay (about 4.4"), "{text}");
        assert!(text.contains("RNR_NAK"), "{text}");
    }

    #[test]
    fn fig5_style_timeout_annotation() {
        let (timed_out, text) = render(&Scenario::damming_probe());
        assert!(timed_out);
        assert!(text.contains("== Post 2nd request =="), "{text}");
        assert!(text.contains("Timeout (about 50"), "{text}");
    }

    #[test]
    fn fig8_style_ghost_annotation() {
        let mut sc = Scenario::fig3_loop(3, 1, 100, SimTime::from_us(350));
        (sc.server_odp, sc.prefetch) = (false, Prefetch::AllButFirst);
        let (_, text) = render(&sc);
        assert!(text.contains("[lost to the damming flaw]"), "{text}");
        assert!(text.contains("NAK_SEQ_ERR"), "{text}");
        assert!(!text.contains("== Timeout"), "rescued, no timeout: {text}");
    }

    #[test]
    fn ordinals() {
        assert_eq!(ordinal(1), "1st");
        assert_eq!(ordinal(2), "2nd");
        assert_eq!(ordinal(3), "3rd");
        assert_eq!(ordinal(11), "11th");
    }
}
