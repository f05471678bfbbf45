//! The RC queue-pair lifecycle: the operational state enum, the single
//! exhaustive legality table, and the [`Lifecycle`] guard every state
//! change is routed through.

use std::fmt;

/// Operational state of the QP, following the RC lifecycle that
/// `ibv_modify_qp` walks on real hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QpState {
    /// Freshly created, not yet initialised.
    Reset,
    /// Initialised (port and access flags assigned).
    Init,
    /// Ready to receive (remote peer known).
    Rtr,
    /// Ready to send (connected).
    Rts,
    /// Fatal error; all work completes with flush errors.
    Error,
}

impl QpState {
    /// Every state, in lifecycle order. Drives the exhaustive transition
    /// matrix test and telemetry enumeration.
    pub const ALL: [QpState; 5] = [
        QpState::Reset,
        QpState::Init,
        QpState::Rtr,
        QpState::Rts,
        QpState::Error,
    ];

    /// The RC state-machine legality table (IB spec §10.3.1): the only
    /// forward transitions are `Reset → Init → Rtr → Rts`, any state may
    /// collapse to `Error`, and `Error → Reset` recycles the QP. Every
    /// transition a [`Qp`](super::Qp) performs is validated against this
    /// table and illegal ones are counted in
    /// [`QpStats::invariant_violations`](super::QpStats::invariant_violations).
    pub fn transition_allowed(from: QpState, to: QpState) -> bool {
        use QpState::*;
        matches!(
            (from, to),
            (Reset, Init) | (Init, Rtr) | (Rtr, Rts) | (_, Error) | (Error, Reset)
        )
    }

    /// The state's canonical uppercase name (also what `Display` prints);
    /// static so telemetry can key dwell counters off it.
    pub fn name(self) -> &'static str {
        match self {
            QpState::Reset => "RESET",
            QpState::Init => "INIT",
            QpState::Rtr => "RTR",
            QpState::Rts => "RTS",
            QpState::Error => "ERROR",
        }
    }
}

impl fmt::Display for QpState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The lifecycle guard owned by the QP facade: the current state plus
/// the runtime-invariant counter. Every state change goes through
/// [`Lifecycle::set`] so illegal transitions are counted instead of
/// silently applied.
#[derive(Debug, Clone, Copy)]
pub(super) struct Lifecycle {
    state: QpState,
    /// Illegal transitions seen.
    violations: u64,
}

impl Lifecycle {
    /// A fresh lifecycle in [`QpState::Reset`].
    pub(super) fn new() -> Self {
        Lifecycle {
            state: QpState::Reset,
            violations: 0,
        }
    }

    /// The current operational state.
    pub(super) fn get(self) -> QpState {
        self.state
    }

    /// True in the fatal error state.
    pub(super) fn is_error(self) -> bool {
        self.state == QpState::Error
    }

    /// Illegal transitions counted so far.
    pub(super) fn violations(self) -> u64 {
        self.violations
    }

    /// Routes a state change through the legality table. An illegal
    /// transition increments the violation counter; the transition is
    /// still applied so a buggy caller's behaviour is observed rather
    /// than masked.
    pub(super) fn set(&mut self, to: QpState) {
        if !QpState::transition_allowed(self.state, to) {
            self.violations += 1;
        }
        self.state = to;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full 5×5 transition matrix, asserted pair by pair: the spine
    /// `Reset → Init → Rtr → Rts`, the error collapse from every state
    /// (including the recovery-relevant `Rts → Error` that retry
    /// exhaustion inside a damming stall takes), the `Error → Reset`
    /// recycle, and nothing else.
    #[test]
    fn transition_matrix_is_exhaustive() {
        use QpState::*;
        let legal = |from: QpState, to: QpState| {
            matches!(
                (from, to),
                (Reset, Init) | (Init, Rtr) | (Rtr, Rts) | (Error, Reset)
            ) || to == Error
        };
        for from in QpState::ALL {
            for to in QpState::ALL {
                assert_eq!(
                    QpState::transition_allowed(from, to),
                    legal(from, to),
                    "transition {from} -> {to} disagrees with the spec table"
                );
            }
        }
        // 25 pairs total; exactly 4 spine/recycle edges + 5 error
        // collapses are legal.
        let allowed = QpState::ALL
            .iter()
            .flat_map(|&f| QpState::ALL.iter().map(move |&t| (f, t)))
            .filter(|&(f, t)| QpState::transition_allowed(f, t))
            .count();
        assert_eq!(allowed, 9, "legality table gained or lost an edge");
    }

    #[test]
    fn names_are_stable_telemetry_keys() {
        let names: Vec<&str> = QpState::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names, ["RESET", "INIT", "RTR", "RTS", "ERROR"]);
        assert_eq!(QpState::Rts.to_string(), "RTS");
    }

    #[test]
    fn lifecycle_applies_even_illegal_transitions() {
        let mut life = Lifecycle::new();
        assert_eq!(life.get(), QpState::Reset);
        life.set(QpState::Init);
        life.set(QpState::Rtr);
        life.set(QpState::Rts);
        assert_eq!(life.get(), QpState::Rts);
        assert!(!life.is_error());
        life.set(QpState::Error);
        assert!(life.is_error());
        // Error -> Reset recycles.
        life.set(QpState::Reset);
        assert_eq!(life.get(), QpState::Reset);
        assert_eq!(life.violations(), 0);
    }

    #[test]
    fn lifecycle_counts_illegal_transitions_under_checks() {
        let mut life = Lifecycle::new();
        life.set(QpState::Rts); // Reset -> Rts skips two stages
        assert_eq!(life.violations(), 1);
        assert_eq!(life.get(), QpState::Rts, "still applied");
        life.set(QpState::Error); // legal collapse
        assert_eq!(life.violations(), 1);
    }
}
