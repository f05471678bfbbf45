//! A count means one thing wherever it is kept: each host's `packets.*`
//! counters, which the cluster bumps as it transmits, equal that host's
//! capture read back row by row, class by class.

use std::collections::BTreeMap;

use ibsim_fabric::Direction;
use ibsim_scenario::{paper_corpus, run_scenario_with, RunOptions};
use ibsim_telemetry::{Instrument, Labels};
use ibsim_verbs::PacketClass;

/// The counter a class is exported as.
fn counter(class: PacketClass) -> &'static str {
    match class {
        PacketClass::Request => "packets.request",
        PacketClass::Retransmit => "packets.retransmit",
        PacketClass::Response => "packets.response",
        PacketClass::Ack => "packets.ack",
        PacketClass::RnrNak => "packets.rnr_nak",
        PacketClass::SeqNak => "packets.seq_nak",
        PacketClass::OtherNak => "packets.nak_other",
    }
}

#[test]
fn each_hosts_packet_counters_are_its_capture_tx_rows() {
    let mut atomic_acks = 0;
    for sc in paper_corpus() {
        let run = run_scenario_with(&sc, RunOptions::FULL);
        for (h, cap) in run.captures.iter().enumerate() {
            let mut want: BTreeMap<&str, u64> = BTreeMap::new();
            for r in cap.iter().filter(|r| r.direction == Direction::Tx) {
                let p = &r.payload;
                atomic_acks += u64::from(p.kind.opcode() == "ATOMIC_ACK");
                *want.entry("packets.total").or_default() += 1;
                *want.entry(counter(p.class())).or_default() += 1;
                if p.ghost {
                    *want.entry("packets.ghost").or_default() += 1;
                } else if r.dropped {
                    *want.entry("packets.fabric_drops").or_default() += 1;
                }
            }
            let host = Labels::host(h as u64);
            let got: BTreeMap<&str, u64> = run
                .telemetry
                .registry()
                .iter()
                .filter(|&(name, labels, _)| name.starts_with("packets.") && labels == host)
                .map(|(name, _, inst)| match inst {
                    Instrument::Counter(v) => (name, *v),
                    Instrument::Gauge(_) | Instrument::Histogram(_) => {
                        panic!("{name} is a {}", inst.kind())
                    }
                })
                .collect();
            assert_eq!(got, want, "{}: host {h}", sc.name);
        }
    }
    // The corpus posts atomics, so the response class is exercised.
    assert!(atomic_acks > 0);
}
