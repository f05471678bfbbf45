//! Known-clean fixture for no-direct-retransmit: the flag may be
//! declared, threaded through, computed, or switched off — only a
//! hard-coded `true` initializer forges a retransmission.

pub struct Packet {
    pub psn: u32,
    pub retransmit: bool,
}

pub fn fresh(psn: u32) -> Packet {
    Packet {
        psn,
        retransmit: false,
    }
}

pub fn threaded(psn: u32, retransmit: bool) -> Packet {
    Packet { psn, retransmit }
}

/// The shape of the one sanctioned site (`Responder::duplicate_atomic`
/// over `QpCtx::packet`) with the flag threaded instead of forged:
/// override a field of the constructor's packet.
pub fn replayed(psn: u32, retransmit: bool) -> Packet {
    Packet {
        retransmit,
        ..fresh(psn)
    }
}

pub fn selected(psn: u32, resends: bool) -> Packet {
    // A computed flag is the backend's decision: "retransmit: true" in
    // a comment or string never fires either.
    let note = "retransmit: true";
    Packet {
        psn: psn + note.len() as u32,
        retransmit: resends,
    }
}

#[cfg(test)]
mod tests {
    use super::Packet;

    #[test]
    fn tests_may_forge() {
        let p = Packet {
            psn: 0,
            retransmit: true,
        };
        assert!(p.retransmit);
    }
}
