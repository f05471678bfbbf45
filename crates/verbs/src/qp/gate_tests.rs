//! The page gate against what it replaced.
//!
//! [`legacy`] keeps the four span walks, the pin loop and the per-opcode
//! responder admission as they stood before the gate became one
//! mechanism, word for word. The replay tests drive both over seeded
//! page-state patterns, offsets, lengths and backends and require equal
//! `Effects` (push order included), page states, `fault_count`, page
//! lists and counters. The one input the old code could not take — a
//! zero-length span at the region's end, where it panicked — is skipped
//! here and pinned by `tests/odp_behavior.rs`. The responder table test
//! pins reply kind, ePSN and counters per opcode and refusal reason.

use std::collections::BTreeMap;

use ibsim_event::{SimTime, SplitMix64};
use ibsim_fabric::{Lid, LinkSpec};

use crate::device::DeviceProfile;
use crate::mem::{MemRegion, Memory, MrMode, PageState, Payload};
use crate::packet::{AtomicOp, NakKind, Packet, PacketKind, SegPos};
use crate::types::{MrKey, Psn, Qpn, WrId, PAGE_SIZE};
use crate::wr::RecvWr;

use super::effects::Effects;
use super::fault::{self, FaultTracker, GateStats, Span};
use super::recovery::RecoveryKind;
use super::responder::Responder;
use super::{QpConfig, QpCtx, QpEnv};

/// The pre-gate implementations, kept verbatim as the reference.
mod legacy {
    use super::*;

    pub fn first_unmapped(mr: &MemRegion, offset: u64, len: u32) -> Option<usize> {
        mr.pages_spanned(offset, len)
            .find(|&p| mr.page_state(p) != PageState::Mapped)
    }

    pub struct GateOutcome {
        pub usable: bool,
        pub newly_faulted: bool,
        pub blocking: Option<(MrKey, usize)>,
    }

    pub fn gate_dest_pages(
        tracker: &FaultTracker,
        mr: &mut MemRegion,
        mr_key: MrKey,
        off: u64,
        len: u32,
        fx: &mut Effects,
    ) -> GateOutcome {
        let mut usable = true;
        let mut newly_faulted = false;
        let mut blocking = None;
        for p in mr.pages_spanned(off, len) {
            match mr.page_state(p) {
                PageState::Unmapped => {
                    mr.set_page_state(p, PageState::Faulting);
                    mr.fault_count += 1;
                    fx.faults.push((mr_key, p));
                    fx.fault_waits.push((mr_key, p));
                    newly_faulted = true;
                    usable = false;
                    blocking.get_or_insert((mr_key, p));
                }
                PageState::Faulting => {
                    fx.fault_waits.push((mr_key, p));
                    usable = false;
                    blocking.get_or_insert((mr_key, p));
                }
                PageState::Mapped => {
                    if tracker.is_stale(mr_key, p) {
                        usable = false;
                        blocking.get_or_insert((mr_key, p));
                    }
                }
            }
        }
        GateOutcome {
            usable,
            newly_faulted,
            blocking,
        }
    }

    pub fn fault_source_pages(
        mr: &mut MemRegion,
        mr_key: MrKey,
        off: u64,
        len: u32,
        fx: &mut Effects,
    ) -> (Vec<(MrKey, usize)>, bool) {
        let mut blocked = Vec::new();
        let mut faulted = false;
        for p in mr.pages_spanned(off, len) {
            if mr.page_state(p) == PageState::Unmapped {
                mr.set_page_state(p, PageState::Faulting);
                mr.fault_count += 1;
                fx.faults.push((mr_key, p));
                faulted = true;
            }
            if mr.page_state(p) == PageState::Faulting {
                blocked.push((mr_key, p));
            }
        }
        (blocked, faulted)
    }

    pub fn pin_pages(mr: &mut MemRegion, off: u64, len: u32) -> u32 {
        let mut pinned = 0;
        for p in mr.pages_spanned(off, len.max(1)) {
            if mr.page_state(p) != PageState::Mapped {
                mr.set_page_state(p, PageState::Mapped);
                pinned += 1;
            }
        }
        pinned
    }

    pub fn raise_unmapped(
        mr: &mut MemRegion,
        mr_key: MrKey,
        addr: u64,
        len: u32,
        fx: &mut Effects,
    ) -> bool {
        let mut faulted = false;
        for p in mr.pages_spanned(addr, len) {
            if mr.page_state(p) == PageState::Unmapped {
                mr.set_page_state(p, PageState::Faulting);
                mr.fault_count += 1;
                fx.faults.push((mr_key, p));
                faulted = true;
            }
        }
        faulted
    }

    pub fn collect_pendency_pages(
        mr: &mut MemRegion,
        mr_key: MrKey,
        offset: u64,
        len: u32,
        fx: &mut Effects,
    ) -> (Vec<(MrKey, usize)>, bool) {
        let mut pages = Vec::new();
        let mut newly_faulted = false;
        for p in mr.pages_spanned(offset, len.max(1)) {
            match mr.page_state(p) {
                PageState::Unmapped => {
                    mr.set_page_state(p, PageState::Faulting);
                    mr.fault_count += 1;
                    fx.faults.push((mr_key, p));
                    pages.push((mr_key, p));
                    newly_faulted = true;
                }
                PageState::Faulting => pages.push((mr_key, p)),
                PageState::Mapped => {}
            }
        }
        (pages, newly_faulted)
    }

    /// How the old `execute_*` preludes answered "may this request run?".
    #[derive(Debug, PartialEq, Eq)]
    pub enum Verdict {
        /// `nak_remote_access`.
        Refused,
        /// `begin_fault_pendency` on these pages (plus its RNR NAK).
        Pendency(Vec<(MrKey, usize)>),
        /// Execution went ahead at this host address.
        Granted(u64),
    }

    /// The admission prelude `execute_{read,write,atomic}` each spelt
    /// out (`execute_send` ran the same ODP half on its receive buffer):
    /// look-up, raw-length bounds (+ alignment for atomics), the ODP
    /// check on `len.max(1)`, then `pin_span` or `begin_fault_pendency`.
    pub fn admission(
        kind: RecoveryKind,
        mrs: &mut BTreeMap<MrKey, MemRegion>,
        span: Span,
        atomic: bool,
        stats: &mut GateStats,
        fx: &mut Effects,
    ) -> Verdict {
        let Some(mr) = mrs.get_mut(&span.key) else {
            return Verdict::Refused;
        };
        if !mr.contains(span.off, span.len) || (atomic && !span.off.is_multiple_of(8)) {
            return Verdict::Refused;
        }
        if mr.mode() == MrMode::Odp && first_unmapped(mr, span.off, span.len.max(1)).is_some() {
            if kind.pins_on_first_touch() {
                let pinned = pin_pages(mr, span.off, span.len);
                if pinned > 0 {
                    stats.pages_pinned += pinned as u64;
                    fx.pins += pinned;
                }
            } else {
                let (pages, newly_faulted) =
                    collect_pendency_pages(mr, span.key, span.off, span.len, fx);
                if newly_faulted {
                    stats.faults_raised += 1;
                }
                return Verdict::Pendency(pages);
            }
        }
        Verdict::Granted(mr.base() + span.off)
    }
}

const KEY: MrKey = MrKey(5);
const KINDS: [RecoveryKind; 3] = [
    RecoveryKind::GoBackN,
    RecoveryKind::SelectiveRepeat,
    RecoveryKind::OnDemandPin,
];

/// One seeded world: a region with a random base alignment, size and
/// page-state pattern, a stale set over it, a backend, and a span drawn
/// from the edge classes (empty, one byte, page-straddling, last byte,
/// whole region, anything in range).
struct Case {
    kind: RecoveryKind,
    mode: MrMode,
    base: u64,
    len: u64,
    states: Vec<PageState>,
    stale: Vec<usize>,
    span: Span,
}

impl Case {
    fn draw(rng: &mut SplitMix64) -> Case {
        let kind = KINDS[rng.next_below(3) as usize];
        let mode = if rng.next_below(8) == 0 {
            MrMode::Pinned
        } else {
            MrMode::Odp
        };
        // A quarter of the regions start mid-page.
        let base = 0x10_0000 + [0, 0, 0, 0x800][rng.next_below(4) as usize];
        let len = match rng.next_below(4) {
            0 => 1 + rng.next_below(PAGE_SIZE),
            1 => PAGE_SIZE,
            _ => 1 + rng.next_below(4 * PAGE_SIZE),
        };
        let probe = MemRegion::new(KEY, base, len, mode);
        let pages = probe.page_count();
        let states = (0..pages)
            .map(|_| match (mode, rng.next_below(3)) {
                (MrMode::Pinned, _) | (MrMode::Odp, 0) => PageState::Mapped,
                (MrMode::Odp, 1) => PageState::Faulting,
                (MrMode::Odp, _) => PageState::Unmapped,
            })
            .collect();
        let stale = (0..pages).filter(|_| rng.next_below(4) == 0).collect();
        let (off, span_len) = match rng.next_below(7) {
            0 => (rng.next_below(len), 0),
            1 => (rng.next_below(len), 1),
            2 => (len - 1, 1),
            3 => (0, len as u32),
            // Straddle a page boundary of the region where it has one.
            4 if pages > 1 => {
                let boundary =
                    PAGE_SIZE - base % PAGE_SIZE + PAGE_SIZE * rng.next_below(pages as u64 - 1);
                let back = 1 + rng.next_below(boundary.min(64));
                let fwd = 1 + rng.next_below((len - boundary).min(64));
                (boundary - back, (back + fwd) as u32)
            }
            _ => {
                let off = rng.next_below(len);
                (off, rng.next_below(len - off + 1) as u32)
            }
        };
        Case {
            kind,
            mode,
            base,
            len,
            states,
            stale,
            span: Span {
                key: KEY,
                off,
                len: span_len,
            },
        }
    }

    fn region(&self) -> MemRegion {
        let mut mr = MemRegion::new(KEY, self.base, self.len, self.mode);
        for (p, &s) in self.states.iter().enumerate() {
            mr.set_page_state(p, s);
        }
        mr
    }

    fn tracker(&self) -> FaultTracker {
        let mut t = FaultTracker::new();
        for &p in &self.stale {
            t.mark_stale(KEY, p);
        }
        t
    }
}

/// Everything a gate pass may change, as one comparable string.
fn outcome(mr: &MemRegion, stats: &GateStats, fx: &Effects) -> String {
    let states: Vec<_> = (0..mr.page_count()).map(|p| mr.page_state(p)).collect();
    format!("{states:?} faults={} {stats:?} {fx:?}", mr.fault_count)
}

/// The landing gate, the source gate and the drop path, old and new,
/// on 12 000 seeded cases.
#[test]
fn the_gate_equals_the_walks_it_replaced() {
    let mut rng = SplitMix64::new(0x9A7E_0001);
    for case_no in 0..12_000 {
        let case = Case::draw(&mut rng);
        let Span { off, len, .. } = case.span;
        let ctx = format!(
            "case {case_no}: {:?} {:?} region {:#x}+{} {:?} span {off}+{len}",
            case.kind, case.mode, case.base, case.len, case.states
        );
        let tracker = case.tracker();
        let pins = case.kind.pins_on_first_touch();

        // Landing: `on_read_response` / `on_atomic_response`'s block.
        {
            let (mut old_mr, mut old_stats, mut old_fx) =
                (case.region(), GateStats::default(), Effects::new());
            let mut old_blocking = None;
            if old_mr.mode() == MrMode::Odp {
                if pins {
                    let pinned = legacy::pin_pages(&mut old_mr, off, len.max(1));
                    if pinned > 0 {
                        old_stats.pages_pinned += pinned as u64;
                        old_fx.pins += pinned;
                    }
                } else {
                    let gate = legacy::gate_dest_pages(
                        &tracker,
                        &mut old_mr,
                        KEY,
                        off,
                        len.max(1),
                        &mut old_fx,
                    );
                    assert_eq!(gate.usable, gate.blocking.is_none(), "{ctx}");
                    old_blocking = gate.blocking;
                    if gate.newly_faulted {
                        old_stats.faults_raised += 1;
                    }
                }
            }
            let (mut mr, mut stats, mut fx) = (case.region(), GateStats::default(), Effects::new());
            let gated = fault::admit(case.kind, &mut mr, case.span, &mut stats, &mut fx);
            // As `on_response` does: waits are registered on discard.
            let blocking = gated.blocking(&mr, &tracker);
            if blocking.is_some() {
                fx.fault_waits.extend(gated.pending(&mr));
            }
            assert_eq!(blocking, old_blocking, "{ctx}: landing");
            assert_eq!(
                outcome(&mr, &stats, &fx),
                outcome(&old_mr, &old_stats, &old_fx),
                "{ctx}: landing"
            );
        }

        // Source: `pump`'s block (an empty segment gathers nothing).
        if len > 0 {
            let (mut old_mr, mut old_stats, mut old_fx) =
                (case.region(), GateStats::default(), Effects::new());
            let mut old_blocked = Vec::new();
            if old_mr.mode() == MrMode::Odp {
                if pins {
                    let pinned = legacy::pin_pages(&mut old_mr, off, len);
                    if pinned > 0 {
                        old_stats.pages_pinned += pinned as u64;
                        old_fx.pins += pinned;
                    }
                } else if legacy::first_unmapped(&old_mr, off, len).is_some() {
                    let (blocked, faulted) =
                        legacy::fault_source_pages(&mut old_mr, KEY, off, len, &mut old_fx);
                    old_blocked = blocked;
                    if faulted {
                        old_stats.faults_raised += 1;
                    }
                }
            }
            let (mut mr, mut stats, mut fx) = (case.region(), GateStats::default(), Effects::new());
            let gated = fault::admit(case.kind, &mut mr, case.span, &mut stats, &mut fx);
            assert_eq!(
                gated.pending(&mr).collect::<Vec<_>>(),
                old_blocked,
                "{ctx}: source"
            );
            assert_eq!(
                outcome(&mr, &stats, &fx),
                outcome(&old_mr, &old_stats, &old_fx),
                "{ctx}: source"
            );
        }

        // Drop path: `queue_faults_for`'s tail, every backend alike.
        {
            let (mut old_mr, mut old_stats, mut old_fx) =
                (case.region(), GateStats::default(), Effects::new());
            if old_mr.mode() == MrMode::Odp
                && old_mr.contains(off, len.max(1))
                && legacy::raise_unmapped(&mut old_mr, KEY, off, len.max(1), &mut old_fx)
            {
                old_stats.faults_raised += 1;
            }
            let (mut mr, mut stats, mut fx) = (case.region(), GateStats::default(), Effects::new());
            fault::raise(&mut mr, case.span, &mut stats, &mut fx);
            assert_eq!(
                outcome(&mr, &stats, &fx),
                outcome(&old_mr, &old_stats, &old_fx),
                "{ctx}: drop path"
            );
        }

        // The probe: `execute_ooo` / `duplicate_read`'s refusal, negated.
        let mr = case.region();
        let old_refuses = !mr.contains(off, len)
            || (mr.mode() == MrMode::Odp && legacy::first_unmapped(&mr, off, len.max(1)).is_some());
        assert_eq!(fault::usable(&mr, case.span), !old_refuses, "{ctx}: probe");
    }
}

fn ctx_for(kind: RecoveryKind) -> QpCtx {
    QpCtx {
        qpn: Qpn(2),
        lid: Lid(2),
        peer: Some((Lid(1), Qpn(1))),
        cfg: QpConfig {
            recovery: kind,
            ..QpConfig::default()
        },
    }
}

/// A responder-side host: memory, one region table, a device profile.
struct Host {
    mem: Memory,
    mrs: BTreeMap<MrKey, MemRegion>,
    profile: DeviceProfile,
}

impl Host {
    fn with(mr: MemRegion) -> Host {
        Host {
            mem: Memory::new(),
            mrs: BTreeMap::from([(mr.key(), mr)]),
            profile: DeviceProfile::connectx4(LinkSpec::fdr()),
        }
    }

    fn env(&mut self) -> QpEnv<'_> {
        QpEnv {
            now: SimTime::from_us(1),
            mem: &mut self.mem,
            mrs: &mut self.mrs,
            profile: &self.profile,
        }
    }
}

/// The request of class `op` (0 READ, 1 WRITE, 2 ATOMIC, 3 SEND) that
/// touches `span` at PSN 0; a SEND's span is its posted receive's.
fn request(op: u64, span: Span) -> Packet {
    let kind = match op {
        0 => PacketKind::ReadRequest {
            rkey: span.key,
            addr: span.off,
            len: span.len,
            resp_packets: 1,
        },
        1 => PacketKind::WriteRequest {
            seg: SegPos::Only,
            rkey: span.key,
            addr: span.off,
            data: Payload::from(&vec![0xAB; span.len as usize][..]),
        },
        2 => PacketKind::AtomicRequest {
            op: AtomicOp::FetchAdd { add: 3 },
            rkey: span.key,
            addr: span.off,
        },
        _ => PacketKind::Send {
            seg: SegPos::Only,
            data: Payload::from(&vec![0xCD; span.len as usize][..]),
        },
    };
    Packet {
        src: Lid(1),
        dst: Lid(2),
        dst_qp: Qpn(2),
        src_qp: Qpn(1),
        psn: Psn::new(0),
        kind,
        ghost: false,
        ecn: false,
        retransmit: false,
    }
}

/// A fresh responder; for a SEND, with the receive whose buffer is `span`.
fn responder_for(op: u64, span: Span) -> Responder {
    let mut resp = Responder::new();
    if op == 3 {
        resp.post_recv(RecvWr {
            id: WrId(9),
            mr: span.key,
            offset: span.off,
            max_len: span.len,
        });
    }
    resp
}

/// `on_request` for all four opcodes against the old per-opcode
/// admission, on 8 000 seeded cases: same verdict (remote-access NAK,
/// pendency on the same pages + RNR NAK, or execution at the same
/// address with the ePSN advanced), same faults, pins, counters and
/// page states.
#[test]
fn the_one_admission_equals_the_per_opcode_preludes() {
    let mut rng = SplitMix64::new(0x9A7E_0002);
    let mut verdicts = [0u32; 3];
    for case_no in 0..8_000 {
        let mut case = Case::draw(&mut rng);
        let op = rng.next_below(4);
        match rng.next_below(8) {
            0 => case.span.key = MrKey(77), // unknown key
            1 => case.span.off += case.len, // out of range
            _ => {}
        }
        if op % 2 == 1 {
            // A WRITE or SEND packet carries at most one MTU.
            case.span.len = case.span.len.min(PAGE_SIZE as u32);
        }
        if op == 2 {
            case.span.len = 8;
            if rng.next_below(3) > 0 {
                case.span.off &= !7;
            }
        }
        let span = case.span;
        if span.len == 0 && span.off == case.len {
            continue; // the old code panicked here
        }
        let ctx = format!(
            "case {case_no}: op {op} {:?} {:?} region {:#x}+{} {:?} span {span:?}",
            case.kind, case.mode, case.base, case.len, case.states
        );

        let mut old_mrs = BTreeMap::from([(KEY, case.region())]);
        let (mut old_stats, mut old_fx) = (GateStats::default(), Effects::new());
        let verdict = legacy::admission(
            case.kind,
            &mut old_mrs,
            span,
            op == 2,
            &mut old_stats,
            &mut old_fx,
        );

        let mut host = Host::with(case.region());
        let mut resp = responder_for(op, span);
        let mut fx = Effects::new();
        resp.on_request(
            &ctx_for(case.kind),
            &mut host.env(),
            &mut fx,
            &request(op, span),
        );

        let replies: Vec<_> = fx.packets.iter().map(|p| &p.kind).collect();
        match &verdict {
            legacy::Verdict::Refused => {
                verdicts[0] += 1;
                assert_eq!(replies, [&PacketKind::Nak(NakKind::RemoteAccess)], "{ctx}");
                assert_eq!(resp.epsn(), Psn::new(0), "{ctx}");
                assert_eq!(resp.fault_pendency(), None, "{ctx}");
            }
            legacy::Verdict::Pendency(pages) => {
                verdicts[1] += 1;
                assert!(
                    matches!(replies[..], [PacketKind::Nak(NakKind::Rnr { .. })]),
                    "{ctx}: {replies:?}"
                );
                assert_eq!(resp.epsn(), Psn::new(0), "{ctx}");
                assert_eq!(
                    resp.fault_pendency(),
                    Some((Psn::new(0), &pages[..])),
                    "{ctx}"
                );
                assert_eq!(resp.stats.rnr_naks_sent, 1, "{ctx}");
            }
            legacy::Verdict::Granted(at) => {
                verdicts[2] += 1;
                assert_eq!(resp.epsn(), Psn::new(1), "{ctx}");
                assert_eq!(resp.fault_pendency(), None, "{ctx}");
                let executed = match op {
                    0 => matches!(replies[..], [PacketKind::ReadResponse { .. }]),
                    2 => matches!(
                        replies[..],
                        [PacketKind::AtomicResponse { original: 0, .. }]
                    ),
                    _ => replies == [&PacketKind::Ack],
                };
                assert!(executed, "{ctx}: {replies:?}");
                // WRITE and SEND payloads and the atomic's sum land
                // exactly at the admitted address.
                let want = match op {
                    0 => vec![0; span.len as usize],
                    1 => vec![0xAB; span.len as usize],
                    2 => 3u64.to_le_bytes().to_vec(),
                    _ => vec![0xCD; span.len as usize],
                };
                assert_eq!(host.mem.read(*at, want.len()), want, "{ctx}");
            }
        }
        fx.packets.clear();
        fx.completions.clear();
        if span.key == KEY {
            assert_eq!(
                outcome(&host.mrs[&KEY], &resp.stats.gate, &fx),
                outcome(&old_mrs[&KEY], &old_stats, &old_fx),
                "{ctx}"
            );
        }
    }
    assert!(verdicts.iter().all(|&n| n > 500), "{verdicts:?}");
}

/// {READ, WRITE, SEND, ATOMIC} × {unknown key, out of range, misaligned
/// atomic, unmapped under each backend, mapped}: the reply, the ePSN
/// and the counters of each cell.
#[test]
fn responder_admission_table() {
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Cell {
        UnknownKey,
        OutOfRange,
        Misaligned,
        Unmapped(RecoveryKind),
        Mapped,
    }
    let mut cells = vec![
        Cell::UnknownKey,
        Cell::OutOfRange,
        Cell::Misaligned,
        Cell::Mapped,
    ];
    cells.extend(KINDS.map(Cell::Unmapped));
    for op in 0..4 {
        for &cell in &cells {
            if cell == Cell::Misaligned && op != 2 {
                continue;
            }
            let mut mr = MemRegion::new(KEY, 0x10_0000, 2 * PAGE_SIZE, MrMode::Odp);
            if cell == Cell::Mapped {
                mr.map_all();
            }
            let span = Span {
                key: if cell == Cell::UnknownKey {
                    MrKey(77)
                } else {
                    KEY
                },
                off: match cell {
                    Cell::OutOfRange => 2 * PAGE_SIZE - 4,
                    Cell::Misaligned => PAGE_SIZE + 4,
                    Cell::UnknownKey | Cell::Unmapped(_) | Cell::Mapped => PAGE_SIZE - 8,
                },
                // Straddles both pages (atomics: the first page's last word).
                len: if op == 2 { 8 } else { 16 },
            };
            let kind = match cell {
                Cell::Unmapped(kind) => kind,
                Cell::UnknownKey | Cell::OutOfRange | Cell::Misaligned | Cell::Mapped => {
                    RecoveryKind::GoBackN
                }
            };
            let mut host = Host::with(mr);
            let mut resp = responder_for(op, span);
            let mut fx = Effects::new();
            resp.on_request(&ctx_for(kind), &mut host.env(), &mut fx, &request(op, span));

            let what = format!("op {op} {cell:?}");
            let replies: Vec<_> = fx.packets.iter().map(|p| &p.kind).collect();
            let pages = if op == 2 { 1 } else { 2 };
            let refused = matches!(cell, Cell::UnknownKey | Cell::OutOfRange | Cell::Misaligned);
            let faults = matches!(
                cell,
                Cell::Unmapped(RecoveryKind::GoBackN | RecoveryKind::SelectiveRepeat)
            );
            if refused {
                assert_eq!(replies, [&PacketKind::Nak(NakKind::RemoteAccess)], "{what}");
            } else if faults {
                let delay = QpConfig::default().min_rnr_delay;
                assert_eq!(
                    replies,
                    [&PacketKind::Nak(NakKind::Rnr { delay })],
                    "{what}"
                );
                let want: Vec<_> = (0..pages).map(|p| (KEY, p)).collect();
                assert_eq!(
                    resp.fault_pendency(),
                    Some((Psn::new(0), &want[..])),
                    "{what}"
                );
                assert_eq!(fx.faults, want, "{what}");
            } else {
                assert_eq!(replies.len(), 1, "{what}");
                assert!(
                    !matches!(replies[0], PacketKind::Nak(_)),
                    "{what}: {replies:?}"
                );
            }
            let executed = !refused && !faults;
            assert_eq!(resp.epsn(), Psn::new(u32::from(executed)), "{what}");
            assert_eq!(resp.stats.rnr_naks_sent, u64::from(faults), "{what}");
            assert_eq!(resp.stats.gate.faults_raised, u64::from(faults), "{what}");
            let pinned = cell == Cell::Unmapped(RecoveryKind::OnDemandPin);
            let want_pins = if pinned { pages as u64 } else { 0 };
            assert_eq!(resp.stats.gate.pages_pinned, want_pins, "{what}");
            assert_eq!(u64::from(fx.pins), want_pins, "{what}");
            assert_eq!(
                fx.completions.len(),
                usize::from(op == 3 && executed),
                "{what}"
            );
            assert_eq!(
                resp.stats.pendency_drops + resp.stats.seq_naks_sent,
                0,
                "{what}"
            );
        }
    }
}
