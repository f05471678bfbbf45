//! Direct unit tests of the QP state machine through the outbox
//! interface, without the event engine: protocol rules in isolation.

use std::collections::BTreeMap;

use ibsim_event::SimTime;
use ibsim_fabric::{Lid, LinkSpec};
use ibsim_verbs::{
    DeviceProfile, Effects, MemRegion, Memory, MrKey, MrMode, NakKind, Packet, PacketKind,
    PageState, Payload, Psn, Qp, QpConfig, QpEnv, Qpn, RecoveryKind, RecvWr, SegPos, WcStatus,
    WorkRequest, WrId, WrOp,
};

struct Host {
    mem: Memory,
    mrs: BTreeMap<MrKey, MemRegion>,
    profile: DeviceProfile,
}

impl Host {
    fn new(profile: DeviceProfile) -> Host {
        Host {
            mem: Memory::new(),
            mrs: BTreeMap::new(),
            profile,
        }
    }

    fn add_mr(&mut self, key: u32, len: u64, mode: MrMode) -> MrKey {
        let base = self.mem.alloc(len);
        let k = MrKey(key);
        self.mrs.insert(k, MemRegion::new(k, base, len, mode));
        k
    }

    fn env(&mut self, now: SimTime) -> QpEnv<'_> {
        QpEnv {
            now,
            mem: &mut self.mem,
            mrs: &mut self.mrs,
            profile: &self.profile,
        }
    }
}

fn cx4() -> DeviceProfile {
    DeviceProfile::connectx4(LinkSpec::fdr())
}

fn read_wr(id: u64, local: MrKey, remote: MrKey, len: u32) -> WorkRequest {
    WorkRequest {
        id: WrId(id),
        op: WrOp::Read {
            local_mr: local,
            local_off: 0,
            rkey: remote,
            remote_off: 0,
            len,
        },
    }
}

#[test]
fn post_read_emits_request_and_arms_timer() {
    let mut host = Host::new(cx4());
    let local = host.add_mr(1, 4096, MrMode::Pinned);
    let mut qp = Qp::new(Qpn(1), Lid(1), QpConfig::default());
    qp.connect(Lid(2), Qpn(9));
    let mut out = Effects::new();
    qp.post(
        &mut host.env(SimTime::ZERO),
        &mut out,
        read_wr(1, local, MrKey(7), 100),
    );
    assert_eq!(out.packets.len(), 1);
    let pkt = &out.packets[0];
    assert_eq!(pkt.dst, Lid(2));
    assert_eq!(pkt.dst_qp, Qpn(9));
    assert_eq!(pkt.psn, Psn::new(0));
    assert!(matches!(pkt.kind, PacketKind::ReadRequest { len: 100, .. }));
    assert!(out.timers.arm_ack, "timeout armed");
    assert_eq!(qp.pending_sends(), 1);
    assert!(qp.is_wr_pending(WrId(1)));
}

#[test]
fn responder_executes_in_order_and_advances_epsn() {
    let mut client = Host::new(cx4());
    let mut server = Host::new(cx4());
    let local = client.add_mr(1, 4096, MrMode::Pinned);
    let remote = server.add_mr(2, 4096, MrMode::Pinned);
    let mut cqp = Qp::new(Qpn(1), Lid(1), QpConfig::default());
    let mut sqp = Qp::new(Qpn(2), Lid(2), QpConfig::default());
    cqp.connect(Lid(2), Qpn(2));
    sqp.connect(Lid(1), Qpn(1));

    let mut out = Effects::new();
    cqp.post(
        &mut client.env(SimTime::ZERO),
        &mut out,
        read_wr(1, local, remote, 64),
    );
    let req = out.packets.remove(0);

    let mut sout = Effects::new();
    sqp.on_packet(&mut server.env(SimTime::from_us(1)), &mut sout, &req);
    assert_eq!(sout.packets.len(), 1);
    assert!(matches!(
        &sout.packets[0].kind,
        PacketKind::ReadResponse {
            seg: SegPos::Only,
            ..
        }
    ));

    // Client consumes the response: completion + data.
    let resp = sout.packets.remove(0);
    let mut cout = Effects::new();
    cqp.on_packet(&mut client.env(SimTime::from_us(2)), &mut cout, &resp);
    assert_eq!(cout.completions.len(), 1);
    assert_eq!(cout.completions[0].0.status, WcStatus::Success);
    assert_eq!(qp_pending(&cqp), 0);
}

/// A single-segment READ response for `psn`, from QP 9 at LID 2 to
/// QP 1 at LID 1.
fn read_response(psn: u32, data: Vec<u8>) -> Packet {
    Packet {
        src: Lid(2),
        dst: Lid(1),
        dst_qp: Qpn(1),
        src_qp: Qpn(9),
        psn: Psn::new(psn),
        kind: PacketKind::ReadResponse {
            seg: SegPos::Only,
            data: Payload::from(&data[..]),
            req_psn: Psn::new(psn),
            offset: 0,
        },
        ghost: false,
        retransmit: false,
        ecn: false,
    }
}

fn qp_pending(qp: &Qp) -> usize {
    qp.pending_sends()
}

#[test]
fn responder_naks_future_psn_once() {
    let mut client = Host::new(cx4());
    let mut server = Host::new(cx4());
    let local = client.add_mr(1, 4096, MrMode::Pinned);
    let remote = server.add_mr(2, 4096, MrMode::Pinned);
    let mut cqp = Qp::new(Qpn(1), Lid(1), QpConfig::default());
    let mut sqp = Qp::new(Qpn(2), Lid(2), QpConfig::default());
    cqp.connect(Lid(2), Qpn(2));
    sqp.connect(Lid(1), Qpn(1));

    // Post two READs but deliver only the second to the server.
    let mut out = Effects::new();
    cqp.post(
        &mut client.env(SimTime::ZERO),
        &mut out,
        read_wr(1, local, remote, 32),
    );
    cqp.post(
        &mut client.env(SimTime::ZERO),
        &mut out,
        read_wr(2, local, remote, 32),
    );
    assert_eq!(out.packets.len(), 2);
    let second = out.packets.remove(1);

    let mut sout = Effects::new();
    sqp.on_packet(&mut server.env(SimTime::from_us(1)), &mut sout, &second);
    assert_eq!(sout.packets.len(), 1);
    assert!(matches!(
        sout.packets[0].kind,
        PacketKind::Nak(NakKind::SequenceError { epsn }) if epsn == Psn::new(0)
    ));
    assert_eq!(sqp.stats().seq_naks_sent, 1);

    // A second out-of-order packet does not produce another NAK.
    let mut sout2 = Effects::new();
    sqp.on_packet(&mut server.env(SimTime::from_us(2)), &mut sout2, &second);
    assert!(sout2.packets.is_empty(), "NAK already outstanding");
}

#[test]
fn nak_seq_error_triggers_go_back_n() {
    let mut client = Host::new(cx4());
    let local = client.add_mr(1, 4096, MrMode::Pinned);
    let mut cqp = Qp::new(Qpn(1), Lid(1), QpConfig::default());
    cqp.connect(Lid(2), Qpn(2));
    let mut out = Effects::new();
    for i in 0..3 {
        cqp.post(
            &mut client.env(SimTime::ZERO),
            &mut out,
            read_wr(i, local, MrKey(7), 32),
        );
    }
    out.packets.clear();

    // NAK(SEQ_ERR, expected psn1): retransmit psn1 and psn2.
    let nak = ibsim_verbs::Packet {
        src: Lid(2),
        dst: Lid(1),
        dst_qp: Qpn(1),
        src_qp: Qpn(2),
        psn: Psn::new(2),
        kind: PacketKind::Nak(NakKind::SequenceError { epsn: Psn::new(1) }),
        ghost: false,
        ecn: false,
        retransmit: false,
    };
    let mut out2 = Effects::new();
    cqp.on_packet(&mut client.env(SimTime::from_us(5)), &mut out2, &nak);
    let psns: Vec<u32> = out2.packets.iter().map(|p| p.psn.value()).collect();
    assert_eq!(psns, vec![1, 2]);
    assert!(out2.packets.iter().all(|p| p.retransmit));
    assert_eq!(cqp.stats().retransmissions, 2);
}

#[test]
fn responder_rnr_naks_send_without_recv_and_recovers() {
    let mut server = Host::new(cx4());
    let recv_mr = server.add_mr(3, 4096, MrMode::Pinned);
    let mut sqp = Qp::new(Qpn(2), Lid(2), QpConfig::default());
    sqp.connect(Lid(1), Qpn(1));
    let send_pkt = ibsim_verbs::Packet {
        src: Lid(1),
        dst: Lid(2),
        dst_qp: Qpn(2),
        src_qp: Qpn(1),
        psn: Psn::new(0),
        kind: PacketKind::Send {
            seg: SegPos::Only,
            data: Payload::from(&b"hello"[..]),
        },
        ghost: false,
        ecn: false,
        retransmit: false,
    };
    let mut out = Effects::new();
    sqp.on_packet(&mut server.env(SimTime::ZERO), &mut out, &send_pkt);
    assert!(matches!(
        out.packets[0].kind,
        PacketKind::Nak(NakKind::Rnr { .. })
    ));
    // Recv posted: the retransmitted SEND now lands and completes.
    sqp.post_recv(RecvWr {
        id: WrId(50),
        mr: recv_mr,
        offset: 0,
        max_len: 4096,
    });
    let mut out2 = Effects::new();
    sqp.on_packet(&mut server.env(SimTime::from_ms(1)), &mut out2, &send_pkt);
    assert!(matches!(out2.packets[0].kind, PacketKind::Ack));
    assert_eq!(out2.completions.len(), 1);
    assert_eq!(out2.completions[0].0.wr_id, WrId(50));
    assert_eq!(out2.completions[0].0.bytes, 5);
}

#[test]
fn odp_responder_faults_and_enters_pendency() {
    let mut server = Host::new(cx4());
    let remote = server.add_mr(2, 8192, MrMode::Odp);
    let mut sqp = Qp::new(Qpn(2), Lid(2), QpConfig::default());
    sqp.connect(Lid(1), Qpn(1));
    let req = ibsim_verbs::Packet {
        src: Lid(1),
        dst: Lid(2),
        dst_qp: Qpn(2),
        src_qp: Qpn(1),
        psn: Psn::new(0),
        kind: PacketKind::ReadRequest {
            rkey: remote,
            addr: 0,
            len: 100,
            resp_packets: 1,
        },
        ghost: false,
        ecn: false,
        retransmit: false,
    };
    let mut out = Effects::new();
    sqp.on_packet(&mut server.env(SimTime::ZERO), &mut out, &req);
    assert!(matches!(
        out.packets[0].kind,
        PacketKind::Nak(NakKind::Rnr { .. })
    ));
    assert_eq!(out.faults, vec![(remote, 0)]);
    assert_eq!(sqp.stats().rnr_naks_sent, 1);

    // During pendency other packets are silently dropped...
    let mut later = req.clone();
    later.psn = Psn::new(1);
    let mut out2 = Effects::new();
    sqp.on_packet(&mut server.env(SimTime::from_us(10)), &mut out2, &later);
    assert!(out2.is_quiet());
    assert_eq!(sqp.stats().pendency_drops, 1);

    // ...while the faulted PSN itself is re-RNR-NAKed.
    let mut out3 = Effects::new();
    sqp.on_packet(&mut server.env(SimTime::from_us(20)), &mut out3, &req);
    assert!(matches!(
        out3.packets[0].kind,
        PacketKind::Nak(NakKind::Rnr { .. })
    ));

    // Fault resolution clears pendency and the retransmission executes.
    {
        let mut env = server.env(SimTime::from_ms(1));
        env.mrs
            .get_mut(&remote)
            .expect("mr")
            .set_page_state(0, ibsim_verbs::PageState::Mapped);
        let mut out4 = Effects::new();
        sqp.on_page_ready(&mut env, &mut out4, remote, 0);
    }
    let mut out5 = Effects::new();
    sqp.on_packet(&mut server.env(SimTime::from_ms(2)), &mut out5, &req);
    assert!(matches!(
        out5.packets[0].kind,
        PacketKind::ReadResponse { .. }
    ));
}

#[test]
fn damming_device_ghosts_posts_inside_rnr_wait() {
    let mut client = Host::new(cx4());
    let local = client.add_mr(1, 8192, MrMode::Pinned);
    let mut cqp = Qp::new(Qpn(1), Lid(1), QpConfig::default());
    cqp.connect(Lid(2), Qpn(2));
    let mut out = Effects::new();
    cqp.post(
        &mut client.env(SimTime::ZERO),
        &mut out,
        read_wr(1, local, MrKey(7), 32),
    );

    // RNR NAK arrives: the QP enters the recovery window.
    let nak = ibsim_verbs::Packet {
        src: Lid(2),
        dst: Lid(1),
        dst_qp: Qpn(1),
        src_qp: Qpn(2),
        psn: Psn::new(0),
        kind: PacketKind::Nak(NakKind::Rnr {
            delay: SimTime::from_us(1_280),
        }),
        ghost: false,
        ecn: false,
        retransmit: false,
    };
    let mut out2 = Effects::new();
    cqp.on_packet(&mut client.env(SimTime::from_us(5)), &mut out2, &nak);
    assert!(out2.timers.arm_rnr.is_some());
    assert!(cqp.in_recovery_window(SimTime::from_ms(1)));

    // A request posted during the window is transmitted as a ghost.
    let mut out3 = Effects::new();
    cqp.post(
        &mut client.env(SimTime::from_ms(1)),
        &mut out3,
        read_wr(2, local, MrKey(7), 32),
    );
    assert_eq!(out3.packets.len(), 1);
    assert!(out3.packets[0].ghost, "damming ghost");
}

#[test]
fn healthy_device_does_not_ghost() {
    let mut client = Host::new(DeviceProfile::connectx6());
    let local = client.add_mr(1, 8192, MrMode::Pinned);
    let mut cqp = Qp::new(Qpn(1), Lid(1), QpConfig::default());
    cqp.connect(Lid(2), Qpn(2));
    let mut out = Effects::new();
    cqp.post(
        &mut client.env(SimTime::ZERO),
        &mut out,
        read_wr(1, local, MrKey(7), 32),
    );
    let nak = ibsim_verbs::Packet {
        src: Lid(2),
        dst: Lid(1),
        dst_qp: Qpn(1),
        src_qp: Qpn(2),
        psn: Psn::new(0),
        kind: PacketKind::Nak(NakKind::Rnr {
            delay: SimTime::from_us(1_280),
        }),
        ghost: false,
        ecn: false,
        retransmit: false,
    };
    let mut out2 = Effects::new();
    cqp.on_packet(&mut client.env(SimTime::from_us(5)), &mut out2, &nak);
    let mut out3 = Effects::new();
    cqp.post(
        &mut client.env(SimTime::from_ms(1)),
        &mut out3,
        read_wr(2, local, MrKey(7), 32),
    );
    assert!(!out3.packets[0].ghost, "no ghosting on fixed hardware");
}

#[test]
fn rnr_fire_retransmits_only_faulted_message_on_damming_device() {
    let mut client = Host::new(cx4());
    let local = client.add_mr(1, 8192, MrMode::Pinned);
    let mut cqp = Qp::new(Qpn(1), Lid(1), QpConfig::default());
    cqp.connect(Lid(2), Qpn(2));
    let mut out = Effects::new();
    cqp.post(
        &mut client.env(SimTime::ZERO),
        &mut out,
        read_wr(1, local, MrKey(7), 32),
    );
    let nak = ibsim_verbs::Packet {
        src: Lid(2),
        dst: Lid(1),
        dst_qp: Qpn(1),
        src_qp: Qpn(2),
        psn: Psn::new(0),
        kind: PacketKind::Nak(NakKind::Rnr {
            delay: SimTime::from_us(1_280),
        }),
        ghost: false,
        ecn: false,
        retransmit: false,
    };
    let mut out2 = Effects::new();
    cqp.on_packet(&mut client.env(SimTime::from_us(5)), &mut out2, &nak);
    assert!(out2.timers.arm_rnr.is_some(), "rnr armed");
    // Post a second message inside the window (ghosted).
    let mut out3 = Effects::new();
    cqp.post(
        &mut client.env(SimTime::from_ms(1)),
        &mut out3,
        read_wr(2, local, MrKey(7), 32),
    );
    // Fire the RNR timer: only the faulted message (psn0) retransmits.
    let mut out4 = Effects::new();
    cqp.on_rnr_fire(&mut client.env(SimTime::from_ms(5)), &mut out4);
    let psns: Vec<u32> = out4.packets.iter().map(|p| p.psn.value()).collect();
    assert_eq!(psns, vec![0], "ConnectX-4 forgets the successor");
}

/// The ACK timer is one bit of QP state mirroring one engine slot: a
/// fire finds work only while the QP holds the timer armed, and every
/// disarm (here: the last response) is emitted as a cancel of the slot.
#[test]
fn an_ack_timeout_acts_only_while_the_timer_is_armed() {
    let mut client = Host::new(cx4());
    let local = client.add_mr(1, 4096, MrMode::Pinned);
    let mut cqp = Qp::new(Qpn(1), Lid(1), QpConfig::default());
    cqp.connect(Lid(2), Qpn(9));
    let t = SimTime::from_secs;
    let mut idle = Effects::new();
    cqp.on_ack_timeout(&mut client.env(t(0)), &mut idle);
    assert!(idle.is_quiet(), "never armed");
    let mut out = Effects::new();
    for id in 0..2 {
        let wr = read_wr(id, local, MrKey(7), 32);
        cqp.post(&mut client.env(t(0)), &mut out, wr);
    }
    assert!(out.timers.arm_ack && !out.timers.cancel_ack);
    // Armed: the timeout counts, resends go-back-N and re-arms.
    let mut fired = Effects::new();
    cqp.on_ack_timeout(&mut client.env(t(1)), &mut fired);
    assert_eq!(cqp.stats().timeouts, 1);
    assert_eq!(fired.packets.len(), 2, "go-back-N retransmission");
    assert!(fired.timers.arm_ack);
    // Both responses land: the second retires the queue and disarms.
    let mut done = Effects::new();
    for psn in 0..2 {
        let resp = read_response(psn, vec![0; 32]);
        cqp.on_packet(&mut client.env(t(2)), &mut done, &resp);
    }
    assert_eq!(done.completions.len(), 2);
    assert!(done.timers.cancel_ack && !done.timers.arm_ack);
    let mut late = Effects::new();
    cqp.on_ack_timeout(&mut client.env(t(3)), &mut late);
    assert!(late.is_quiet(), "disarmed");
    assert_eq!(cqp.stats().timeouts, 1);
}

#[test]
fn retry_exhaustion_errors_out_and_flushes() {
    let mut client = Host::new(cx4());
    let local = client.add_mr(1, 4096, MrMode::Pinned);
    let cfg = QpConfig {
        retry_count: 1,
        ..QpConfig::default()
    };
    let mut cqp = Qp::new(Qpn(1), Lid(1), cfg);
    cqp.connect(Lid(2), Qpn(2));
    let mut out = Effects::new();
    cqp.post(
        &mut client.env(SimTime::ZERO),
        &mut out,
        read_wr(1, local, MrKey(7), 32),
    );
    cqp.post(
        &mut client.env(SimTime::ZERO),
        &mut out,
        read_wr(2, local, MrKey(7), 32),
    );
    assert!(out.timers.arm_ack, "armed");
    // First timeout: retries once and re-arms.
    let mut out2 = Effects::new();
    cqp.on_ack_timeout(&mut client.env(SimTime::from_secs(1)), &mut out2);
    assert!(out2.timers.arm_ack, "re-armed");
    // Second timeout: budget exhausted.
    let mut out3 = Effects::new();
    cqp.on_ack_timeout(&mut client.env(SimTime::from_secs(2)), &mut out3);
    assert_eq!(out3.completions.len(), 2);
    assert_eq!(out3.completions[0].0.status, WcStatus::RetryExcErr);
    assert_eq!(out3.completions[1].0.status, WcStatus::WrFlushErr);
    assert_eq!(cqp.state(), ibsim_verbs::QpState::Error);
    // Posting afterwards flushes immediately.
    let mut out4 = Effects::new();
    cqp.post(
        &mut client.env(SimTime::from_secs(3)),
        &mut out4,
        read_wr(3, local, MrKey(7), 32),
    );
    assert_eq!(out4.completions[0].0.status, WcStatus::WrFlushErr);
}

#[test]
fn write_segments_carry_correct_slices() {
    let mut client = Host::new(cx4());
    let len = 4096 * 2 + 100;
    let local = client.add_mr(1, len as u64, MrMode::Pinned);
    {
        let env = client.env(SimTime::ZERO);
        let base = env.mrs[&local].base();
        let data: Vec<u8> = (0..len).map(|i| (i % 201) as u8).collect();
        env.mem.write(base, &data);
    }
    let mut cqp = Qp::new(Qpn(1), Lid(1), QpConfig::default());
    cqp.connect(Lid(2), Qpn(2));
    let mut out = Effects::new();
    cqp.post(
        &mut client.env(SimTime::ZERO),
        &mut out,
        WorkRequest {
            id: WrId(1),
            op: WrOp::Write {
                local_mr: local,
                local_off: 0,
                rkey: MrKey(7),
                remote_off: 0,
                len: len as u32,
            },
        },
    );
    assert_eq!(out.packets.len(), 3);
    let segs: Vec<SegPos> = out
        .packets
        .iter()
        .map(|p| {
            let PacketKind::WriteRequest { seg, .. } = &p.kind else {
                panic!("expected write");
            };
            *seg
        })
        .collect();
    assert_eq!(segs, vec![SegPos::First, SegPos::Middle, SegPos::Last]);
    let sizes: Vec<usize> = out
        .packets
        .iter()
        .map(|p| {
            let PacketKind::WriteRequest { data, .. } = &p.kind else {
                unreachable!();
            };
            data.len()
        })
        .collect();
    assert_eq!(sizes, vec![4096, 4096, 100]);
    // PSNs are consecutive.
    let psns: Vec<u32> = out.packets.iter().map(|p| p.psn.value()).collect();
    assert_eq!(psns, vec![0, 1, 2]);
}

/// What the responder answers a hand-built READ request with:
/// `(seg, offset, payload, retransmit)` per response packet.
fn read_responses(
    sqp: &mut Qp,
    server: &mut Host,
    psn: u32,
    read: (MrKey, u32, u32),
) -> Vec<(SegPos, u32, Vec<u8>, bool)> {
    let (rkey, len, resp_packets) = read;
    let req = Packet {
        src: Lid(1),
        dst: Lid(2),
        dst_qp: Qpn(2),
        src_qp: Qpn(1),
        psn: Psn::new(psn),
        kind: PacketKind::ReadRequest {
            rkey,
            addr: 0,
            len,
            resp_packets,
        },
        ghost: false,
        retransmit: false,
        ecn: false,
    };
    let mut out = Effects::new();
    sqp.on_packet(&mut server.env(SimTime::ZERO), &mut out, &req);
    out.packets
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            assert_eq!(p.psn, Psn::new(psn + i as u32));
            let PacketKind::ReadResponse {
                seg,
                data,
                req_psn,
                offset,
            } = p.kind
            else {
                panic!("expected a READ response, got {:?}", p.kind);
            };
            assert_eq!(req_psn, Psn::new(psn));
            (seg, offset, data.to_vec(), p.retransmit)
        })
        .collect()
}

#[test]
fn read_response_segments_are_cut_straight_from_memory() {
    let mut server = Host::new(cx4());
    let len = 4096 * 2 + 100;
    let remote = server.add_mr(2, 4096 * 4, MrMode::Pinned);
    let base = server.mrs[&remote].base();
    let bytes: Vec<u8> = (0..len).map(|i| (i % 199) as u8).collect();
    server.mem.write(base, &bytes);
    let mut sqp = Qp::new(Qpn(2), Lid(2), QpConfig::default());
    sqp.connect(Lid(1), Qpn(1));

    // Three segments, and their duplicate replay.
    let first = read_responses(&mut sqp, &mut server, 0, (remote, len as u32, 3));
    assert_eq!(
        first,
        vec![
            (SegPos::First, 0, bytes[..4096].to_vec(), false),
            (SegPos::Middle, 4096, bytes[4096..8192].to_vec(), false),
            (SegPos::Last, 8192, bytes[8192..].to_vec(), false),
        ]
    );
    let replay = read_responses(&mut sqp, &mut server, 0, (remote, len as u32, 3));
    assert_eq!(replay.len(), 3);
    for (a, b) in first.iter().zip(&replay) {
        assert_eq!((a.0, a.1, &a.2, true), (b.0, b.1, &b.2, b.3));
    }
    // A zero-length READ is answered by one empty segment.
    assert_eq!(
        read_responses(&mut sqp, &mut server, 3, (remote, 0, 1)),
        vec![(SegPos::Only, 0, vec![], false)]
    );
    // More response packets than data: the surplus segments are empty
    // and keep their nominal offsets.
    assert_eq!(
        read_responses(&mut sqp, &mut server, 4, (remote, 100, 3)),
        vec![
            (SegPos::First, 0, bytes[..100].to_vec(), false),
            (SegPos::Middle, 4096, vec![], false),
            (SegPos::Last, 8192, vec![], false),
        ]
    );
    assert_eq!(server.mem.resident_pages(), 3, "nothing past the data");
    // Fewer response packets than the data needs (the requester's MTU
    // was larger): the unsent tail is still read, so it is resident.
    let short = read_responses(&mut sqp, &mut server, 7, (remote, 4096 * 4, 1));
    assert_eq!(short.len(), 1);
    assert_eq!(short[0].2.len(), 4096);
    assert_eq!(server.mem.resident_pages(), 4);
}

/// A stalled head with `successors` completed READs queued behind it
/// (they cannot retire out of order — the shape every QP of the §VI
/// flood is in for seconds). Returns what the next blind stall tick, a
/// re-discarded head response and a stale duplicate of a finished
/// successor emit, rendered for comparison.
fn turns_behind_a_stalled_head(successors: u32) -> [String; 3] {
    let mut host = Host::new(cx4());
    let odp = host.add_mr(1, 4096, MrMode::Odp);
    let pinned = host.add_mr(2, 4096, MrMode::Pinned);
    let cfg = QpConfig {
        max_rd_atomic: successors as usize + 1,
        ..QpConfig::default()
    };
    let mut qp = Qp::new(Qpn(1), Lid(1), cfg);
    qp.connect(Lid(2), Qpn(9));
    let response = |psn: u32| read_response(psn, vec![psn as u8; 64]);
    let t = SimTime::from_us;
    let mut fx = Effects::new();
    qp.post(&mut host.env(t(0)), &mut fx, read_wr(0, odp, MrKey(7), 64));
    for id in 1..=successors {
        let wr = read_wr(u64::from(id), pinned, MrKey(7), 64);
        qp.post(&mut host.env(t(0)), &mut fx, wr);
    }
    assert_eq!(fx.packets.len() as u32, successors + 1, "all on the wire");

    // The head's response hits an unmapped page: discarded, stalled.
    let mut fx = Effects::new();
    qp.on_packet(&mut host.env(t(1)), &mut fx, &response(0));
    assert_eq!(fx.faults.len(), 1);
    let (stall_psn, _) = fx.timers.arm_stalls[0];
    // Every successor completes but none can retire past the head.
    let mut fx = Effects::new();
    for psn in 1..=successors {
        qp.on_packet(&mut host.env(t(2)), &mut fx, &response(psn));
    }
    assert!(fx.completions.is_empty());
    assert_eq!(qp.pending_sends() as u32, successors + 1);

    // The go-back-N tick is blind: the head goes back on the wire and
    // the tick re-arms — one packet and one re-arm, nothing else,
    // whatever is queued behind.
    let mut tick = Effects::new();
    qp.on_stall_tick(&mut host.env(t(500)), &mut tick, stall_psn);
    assert_eq!(tick.packets.len(), 1, "exactly the head is resent");
    assert!(tick.packets[0].retransmit && tick.packets[0].psn == stall_psn);
    let rearm = (stall_psn, host.profile.odp_client_retx);
    assert_eq!(tick.timers.arm_stalls, [rearm], "and the tick re-armed");
    assert!(!tick.timers.arm_ack && tick.timers.cancel_stalls.is_empty());
    assert!(tick.completions.is_empty() && tick.faults.is_empty());
    assert!(tick.fault_waits.is_empty() && tick.irqs == 0);
    let mut rediscard = Effects::new();
    qp.on_packet(&mut host.env(t(501)), &mut rediscard, &response(0));
    assert_eq!(rediscard.irqs, 1, "still faulting: discarded again");
    let mut duplicate = Effects::new();
    qp.on_packet(&mut host.env(t(502)), &mut duplicate, &response(1));
    assert!(
        duplicate.is_quiet(),
        "finished successor ignores duplicates"
    );
    assert_eq!(qp.stats().retransmissions, 1);
    assert_eq!(qp.stats().responses_discarded, 3);
    [tick, rediscard, duplicate].map(|fx| format!("{fx:?}"))
}

#[test]
fn handler_turns_do_not_depend_on_the_depth_behind_a_stalled_head() {
    assert_eq!(
        turns_behind_a_stalled_head(1),
        turns_behind_a_stalled_head(1000)
    );
}

/// Selective repeat resumes every stall a resolved page unblocks in one
/// turn. Stalls are kept in stall order; the requester must still resend
/// in send-queue order, and a message that completed since stalling is
/// not resent (its stall goes when it retires).
#[test]
fn selective_repeat_resume_resends_in_queue_order() {
    let mut host = Host::new(cx4());
    let odp = host.add_mr(1, 4096, MrMode::Odp);
    let cfg = QpConfig {
        recovery: RecoveryKind::SelectiveRepeat,
        ..QpConfig::default()
    };
    let mut qp = Qp::new(Qpn(1), Lid(1), cfg);
    qp.connect(Lid(2), Qpn(9));
    let mut fx = Effects::new();
    for id in 0..3 {
        // Three READs landing in the same (unmapped) page.
        let wr = read_wr(id, odp, MrKey(7), 64);
        qp.post(&mut host.env(SimTime::ZERO), &mut fx, wr);
    }
    let response = |psn: u32| read_response(psn, vec![0; 64]);
    // Responses overtake each other: PSN 2 stalls first, then 0, then 1.
    for psn in [2, 0, 1] {
        qp.on_packet(&mut host.env(SimTime::from_us(1)), &mut fx, &response(psn));
    }
    assert!(fx.timers.arm_stalls.is_empty(), "no blind tick under IRN");
    host.mrs
        .get_mut(&odp)
        .unwrap()
        .set_page_state(0, PageState::Mapped);
    // The page is mapped but this QP has not heard yet, and a duplicate
    // response for PSN 1 lands: it completes behind the stalled head,
    // where it cannot retire, so its stall is still registered.
    let mut landed = Effects::new();
    qp.on_packet(
        &mut host.env(SimTime::from_us(299)),
        &mut landed,
        &response(1),
    );
    assert!(landed.completions.is_empty() && qp.pending_sends() == 3);
    let mut resumed = Effects::new();
    qp.on_page_ready(&mut host.env(SimTime::from_us(300)), &mut resumed, odp, 0);
    let psns: Vec<u32> = resumed.packets.iter().map(|p| p.psn.value()).collect();
    assert_eq!(
        psns,
        [0, 2],
        "unfinished stalls resent once, in queue order"
    );
    assert!(resumed.packets.iter().all(|p| p.retransmit));
    assert_eq!(qp.stats().retransmissions, 2);
    assert!(qp.in_recovery(), "the finished message keeps its stall");
    // The head lands: PSN 0 and 1 retire together, and the last stall
    // is cancelled with the message it belonged to.
    let mut retired = Effects::new();
    qp.on_packet(
        &mut host.env(SimTime::from_us(310)),
        &mut retired,
        &response(0),
    );
    assert_eq!(retired.completions.len(), 2);
    assert_eq!(retired.timers.cancel_stalls, [Psn::new(1)]);
    assert!(!qp.in_recovery(), "every stall cleared");
}
