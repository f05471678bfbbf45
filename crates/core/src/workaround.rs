//! Software-side workarounds for the pitfalls (§IX-A).
//!
//! The paper proposes three mitigations that need no hardware change:
//!
//! 1. **Smallest minimal RNR NAK delay** — shrinks the packet-damming
//!    window (and, per \[19\], the client-side resolution time):
//!    [`smallest_rnr_delay`].
//! 2. **Periodic dummy communication** — "posting an additional
//!    communication" gives the responder a chance to detect the PSN gap
//!    and emit a sequence-error NAK, rescuing a dammed request in
//!    milliseconds instead of a ~500 ms timeout: [`install_dummy_reads`].
//! 3. **Re-issuing a flooded READ** — during packet flood the fault is
//!    actually resolved, so the same communication issued on a *fresh* QP
//!    (whose page status is not stale) completes immediately:
//!    [`reissue_read`].

use ibsim_event::SimTime;
use ibsim_verbs::{rnr_timer_decode, Cluster, HostId, MrKey, Qpn, ReadWr, Sim, WrId};

/// The smallest nonzero minimal RNR NAK delay the RNR timer table allows
/// (10 µs, encoding 1). Workaround 1: configure responders with this value
/// to narrow the damming window (Fig. 6a).
pub fn smallest_rnr_delay() -> SimTime {
    rnr_timer_decode(1)
}

/// Installs a software timer that posts `count` dummy 1-byte READs on
/// `qpn`, one every `period`, starting one period from now (workaround 2).
///
/// The dummy READs target `(remote_rkey, remote_off)` — use an offset
/// whose page is already warm — and land at `(local_mr, local_off)`.
/// Dummy completions carry ids `wr_base`, `wr_base + 1`, … so the
/// application can filter them from its completion stream.
#[expect(
    clippy::too_many_arguments,
    reason = "one argument per field of the timer-driven READ the workaround posts"
)]
pub fn install_dummy_reads(
    eng: &mut Sim,
    cl: &Cluster,
    host: HostId,
    qpn: Qpn,
    wr_base: u64,
    local_mr: MrKey,
    local_off: u64,
    remote_rkey: MrKey,
    remote_off: u64,
    period: SimTime,
    count: u32,
) {
    let dummy = ReadWr::new((local_mr, local_off), (remote_rkey, remote_off)).len(1);
    for i in 0..count {
        let at = eng.now() + period * (i as u64 + 1);
        cl.post_at(eng, at, host, qpn, dummy.id(wr_base + i as u64));
    }
}

/// Schedules a watchdog that re-issues a READ on a *fresh* QP if the
/// original work request `watched` has not completed within `deadline`
/// (workaround 3 for packet flood).
///
/// The duplicate is posted on `spare_qpn` — a QP that was not involved in
/// the flood, so its page-status cache is clean — with id `reissue_id`.
/// The original completion will still arrive eventually; the application
/// keeps whichever lands first and ignores the other.
#[expect(
    clippy::too_many_arguments,
    reason = "one argument per field of the timer-driven READ the workaround posts"
)]
pub fn reissue_read(
    eng: &mut Sim,
    host: HostId,
    watched_qpn: Qpn,
    watched: WrId,
    spare_qpn: Qpn,
    reissue_id: WrId,
    local_mr: MrKey,
    local_off: u64,
    remote_rkey: MrKey,
    remote_off: u64,
    len: u32,
    deadline: SimTime,
) {
    let at = eng.now() + deadline;
    eng.schedule_at(at, move |c: &mut Cluster, eng| {
        if c.wr_pending(host, watched_qpn, watched) {
            c.post(
                eng,
                host,
                spare_qpn,
                ReadWr::new((local_mr, local_off), (remote_rkey, remote_off))
                    .len(len)
                    .id(reissue_id),
            );
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibsim_event::Engine;
    use ibsim_fabric::LinkSpec;
    use ibsim_verbs::{DeviceProfile, MrMode, QpConfig, WcStatus};

    fn cx4() -> DeviceProfile {
        DeviceProfile::connectx4(LinkSpec::fdr())
    }

    #[test]
    fn smallest_rnr_delay_is_10us() {
        assert_eq!(smallest_rnr_delay(), SimTime::from_us(10));
    }

    #[test]
    fn small_rnr_delay_narrows_the_damming_window() {
        // With a 10 µs minimal delay the RNR window is ~35 µs, so a 1 ms
        // interval is far outside it: no timeout.
        use crate::microbench::{run_microbench, MicrobenchConfig, OdpMode};
        let cfg = MicrobenchConfig {
            interval: SimTime::from_ms(1),
            odp: OdpMode::ServerSide,
            min_rnr_delay: smallest_rnr_delay(),
            ..Default::default()
        };
        let run = run_microbench(&cfg);
        assert!(!run.timed_out(), "small RNR delay avoids the window");
        assert!(run.execution_time < SimTime::from_ms(20));
    }

    #[test]
    fn dummy_reads_rescue_a_dammed_request() {
        // Reproduce the §V-A damming scenario, then show the dummy-read
        // timer converts the ~500 ms timeout into a millisecond-scale
        // NAK-seq rescue.
        let run_with = |dummies: bool| {
            let mut eng = Engine::new();
            let mut cl = Cluster::new(11);
            let a = cl.add_host("client", cx4());
            let b = cl.add_host("server", cx4());
            let remote = cl.alloc_mr(b, 4096, MrMode::Odp);
            let local = cl.alloc_mr(a, 4096, MrMode::Pinned);
            let (qa, _) = cl.connect_pair(&mut eng, a, b, QpConfig::default());
            cl.post(
                &mut eng,
                a,
                qa,
                ReadWr::new(local.key, remote.key).len(100).id(0u64),
            );
            let second = ReadWr::new(local.at(200), remote.at(200)).len(100).id(1);
            cl.post_at(&mut eng, SimTime::from_ms(1), a, qa, second);
            if dummies {
                install_dummy_reads(
                    &mut eng,
                    &cl,
                    a,
                    qa,
                    1000,
                    local.key,
                    0,
                    remote.key,
                    0,
                    SimTime::from_ms(2),
                    8,
                );
            }
            eng.run(&mut cl);
            let cq = cl.poll_cq(a);
            cq.iter()
                .filter(|c| c.wr_id == WrId(1) && c.status == WcStatus::Success)
                .map(|c| c.at)
                .next()
                .expect("second READ completes")
        };
        let without = run_with(false);
        let with = run_with(true);
        assert!(without >= SimTime::from_ms(400), "dammed: {without}");
        assert!(with < SimTime::from_ms(20), "rescued: {with}");
    }

    #[test]
    fn reissue_on_fresh_qp_beats_the_flood() {
        // 64 QPs flood one page; the watched READ is the first poster
        // (resumed last, LIFO). A re-issue on a spare QP completes as soon
        // as the fault is resolved.
        let run_with = |reissue: bool| {
            let mut eng = Engine::new();
            let mut cl = Cluster::new(5);
            let a = cl.add_host("client", cx4());
            let b = cl.add_host("server", cx4());
            let remote = cl.alloc_mr(b, 4096, MrMode::Pinned);
            let local = cl.alloc_mr(a, 4096, MrMode::Odp);
            let cfg = QpConfig {
                cack: 18,
                ..QpConfig::default()
            };
            let qps: Vec<_> = (0..64)
                .map(|_| cl.connect_pair(&mut eng, a, b, cfg.clone()).0)
                .collect();
            let spare = cl.connect_pair(&mut eng, a, b, cfg).0;
            for (i, q) in qps.iter().enumerate() {
                cl.post(
                    &mut eng,
                    a,
                    *q,
                    ReadWr::new((local.key, (i * 32) as u64), remote.key)
                        .len(32)
                        .id(i as u64),
                );
            }
            if reissue {
                reissue_read(
                    &mut eng,
                    a,
                    qps[0],
                    WrId(0),
                    spare,
                    WrId(999),
                    local.key,
                    0,
                    remote.key,
                    0,
                    32,
                    SimTime::from_ms(2),
                );
            }
            eng.run(&mut cl);
            let cq = cl.poll_cq(a);
            let original = cq
                .iter()
                .find(|c| c.wr_id == WrId(0))
                .expect("original completes")
                .at;
            let reissued = cq.iter().find(|c| c.wr_id == WrId(999)).map(|c| c.at);
            (original, reissued)
        };
        let (orig_plain, _) = run_with(false);
        let (orig_flooded, reissued) = run_with(true);
        let reissued = reissued.expect("re-issued READ completed");
        assert!(
            reissued < orig_flooded,
            "fresh-QP reissue ({reissued}) beats the flooded original ({orig_flooded})"
        );
        assert!(
            reissued < orig_plain,
            "and the un-helped run ({orig_plain})"
        );
    }
}
