//! RNIC device models.
//!
//! A [`DeviceProfile`] bundles every hardware- and driver-level constant
//! the simulator needs: link speed, timeout behavior, ODP fault handling
//! latencies, and the reverse-engineered quirks the paper uncovered. The
//! per-system catalog reproducing Table I lives in `ibsim-odp`; this module
//! provides the per-generation baselines.

use core::fmt;

use ibsim_event::SimTime;
use ibsim_fabric::LinkSpec;

/// The RNIC generations studied in the paper (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeviceModel {
    /// ConnectX-3 (FDR 56 Gb/s).
    ConnectX3,
    /// ConnectX-4 (FDR 56 Gb/s or EDR 100 Gb/s).
    ConnectX4,
    /// ConnectX-5 (EDR 100 Gb/s).
    ConnectX5,
    /// ConnectX-6 (HDR 200 Gb/s).
    ConnectX6,
}

impl fmt::Display for DeviceModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceModel::ConnectX3 => write!(f, "ConnectX-3"),
            DeviceModel::ConnectX4 => write!(f, "ConnectX-4"),
            DeviceModel::ConnectX5 => write!(f, "ConnectX-5"),
            DeviceModel::ConnectX6 => write!(f, "ConnectX-6"),
        }
    }
}

/// The IBTA RNR NAK timer table: encoding `e` (5 bits) → minimum delay the
/// requester must wait before retrying after an RNR NAK.
///
/// Values in microseconds ×100 would lose the 10 µs entry, so the table is
/// stored in nanoseconds. Encoding 0 is the special 655.36 ms maximum.
const RNR_TIMER_TABLE_NS: [u64; 32] = [
    655_360_000, // 0
    10_000,      // 1: 0.01 ms
    20_000,
    30_000,
    40_000,
    60_000,
    80_000,
    120_000,
    160_000,
    240_000,
    320_000,
    480_000,
    640_000,
    960_000,   // 13: 0.96 ms (UCX default)
    1_280_000, // 14: 1.28 ms (paper's micro-benchmarks)
    1_920_000,
    2_560_000,
    3_840_000,
    5_120_000,
    7_680_000,
    10_240_000, // 20: 10.24 ms
    15_360_000,
    20_480_000,
    30_720_000,
    40_960_000,
    61_440_000,
    81_920_000,
    122_880_000,
    163_840_000,
    245_760_000,
    327_680_000,
    491_520_000, // 31
];

/// Decodes a 5-bit RNR NAK timer encoding into a delay.
///
/// # Panics
///
/// Panics if `encoding > 31`.
pub fn rnr_timer_decode(encoding: u8) -> SimTime {
    SimTime::from_ns(RNR_TIMER_TABLE_NS[encoding as usize])
}

/// Encodes a requested minimal RNR delay as the smallest table entry that
/// is at least `delay` (the device rounds up), ignoring the 655.36 ms
/// encoding 0. Delays above the largest entry saturate to encoding 31.
pub fn rnr_timer_encode(delay: SimTime) -> u8 {
    for (i, &ns) in RNR_TIMER_TABLE_NS.iter().enumerate().skip(1) {
        if SimTime::from_ns(ns) >= delay {
            return i as u8;
        }
    }
    31
}

/// Computes the transport timer interval `T_tr = 4.096 µs · 2^c` for a
/// Local ACK Timeout field value `c` (§II-C). `c == 0` disables the timer,
/// returning `None`.
pub fn t_tr(cack: u8) -> Option<SimTime> {
    if cack == 0 {
        None
    } else {
        Some(SimTime::from_ns(4_096u64 << cack.min(31)))
    }
}

/// Everything the simulator needs to know about one RNIC + its driver.
///
/// Constants with paper provenance are documented field by field; the rest
/// are engineering choices calibrated so that the reproduced figures match
/// the paper's shapes (see `DESIGN.md` §6).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceProfile {
    /// Silicon generation.
    pub model: DeviceModel,
    /// Host↔switch link characteristics.
    pub link: LinkSpec,
    /// `c0`: the vendor-defined minimum acceptable Local ACK Timeout
    /// (§II-C). Fig. 2 estimates 12 for ConnectX-5, 16 for all others.
    pub min_cack: u8,
    /// Actual timeout over timer interval, in per-mille:
    /// `T_o = (timeout_stretch_pm / 1000) · T_tr`. The spec allows
    /// `T_tr ≤ T_o < 4·T_tr`; Fig. 2 shows ≈1.8–1.9 (1800–1900 ‰).
    pub timeout_stretch_pm: u64,
    /// Actual RNR wait over the advertised minimal RNR NAK delay, in
    /// per-mille. Fig. 1 measures ≈4.5 ms of real wait for a 1.28 ms
    /// advertised delay (3500 ‰ of the advertised value plus scheduling).
    pub rnr_stretch_pm: u64,
    /// The packet-damming hardware flaw (§V): ConnectX-4 recovery forgets
    /// successor requests first transmitted during a fault-recovery
    /// window. Vendor feedback says it is CX-4-specific and "vanishes in
    /// later models" (§IX-B).
    pub damming: bool,
    /// Doorbell/pipeline latency of the damming quirk: requests that left
    /// the send pipeline within this window *before* an RNR NAK arrived
    /// are treated as transmitted during the recovery (they are dropped by
    /// the responder's fault pendency, and the flawed recovery forgets
    /// them). Zero on healthy devices.
    pub ghost_lookback: SimTime,
    /// Client-side ODP blind retransmission period: the requester re-sends
    /// a faulted READ about every 0.5 ms regardless of fault state (Fig. 1
    /// right, Fig. 6b).
    pub odp_client_retx: SimTime,
    /// Lower bound of the common-case network page fault latency
    /// (250 µs, §VI Fig. 9 gray band).
    pub fault_latency_min: SimTime,
    /// Upper bound of the common-case network page fault latency (1 ms).
    pub fault_latency_max: SimTime,
    /// Number of stalled QPs the NIC can resume "for free" when a fault
    /// resolves; beyond this, per-QP page-status updates serialize in the
    /// driver. Fig. 9a shows flood onset a little above 10 QPs.
    pub resume_slots: u32,
    /// Driver cost to refresh one (QP, page) status entry.
    pub resume_cost: SimTime,
    /// Driver interrupt work caused by one discarded duplicate response
    /// during a flood.
    pub irq_cost: SimTime,
    /// Weighted-fair-queueing ratio: how many interrupt work items the
    /// driver serves per status-update item. Larger values starve resumes
    /// harder under retransmission storms.
    pub irq_burst: u32,
    /// Per-packet NIC send-side processing overhead.
    pub send_overhead: SimTime,
    /// Per-packet NIC receive-side processing overhead.
    pub recv_overhead: SimTime,
    /// Extra relative lengthening of the ACK timeout per QP concurrently
    /// in fault recovery, in per-mille per QP, modeling the client-side
    /// timer-management load the paper observed with many QPs (§VI-C).
    pub timer_load_coeff_pm: u64,
}

impl DeviceProfile {
    /// Baseline profile shared by all generations; generation constructors
    /// override the differing fields.
    fn base(model: DeviceModel, link: LinkSpec) -> Self {
        DeviceProfile {
            model,
            link,
            min_cack: 16,
            timeout_stretch_pm: 1870,
            rnr_stretch_pm: 3500,
            damming: false,
            ghost_lookback: SimTime::from_us(2),
            odp_client_retx: SimTime::from_us(500),
            fault_latency_min: SimTime::from_us(250),
            fault_latency_max: SimTime::from_us(1000),
            resume_slots: 10,
            resume_cost: SimTime::from_us(25),
            irq_cost: SimTime::from_us(2),
            irq_burst: 512,
            send_overhead: SimTime::from_ns(150),
            recv_overhead: SimTime::from_ns(150),
            timer_load_coeff_pm: 2,
        }
    }

    /// ConnectX-3 FDR: damming-era silicon, 500 ms timeout floor.
    pub fn connectx3() -> Self {
        DeviceProfile {
            damming: true,
            ..Self::base(DeviceModel::ConnectX3, LinkSpec::fdr())
        }
    }

    /// ConnectX-4 (FDR or EDR): the paper's main subject; exhibits both
    /// packet damming and packet flood.
    pub fn connectx4(link: LinkSpec) -> Self {
        DeviceProfile {
            damming: true,
            ..Self::base(DeviceModel::ConnectX4, link)
        }
    }

    /// ConnectX-5 EDR: shorter timeout floor (≈30 ms, `c0 = 12`); vendor
    /// feedback says the damming flaw vanished after ConnectX-4.
    pub fn connectx5() -> Self {
        DeviceProfile {
            min_cack: 12,
            timeout_stretch_pm: 1790,
            damming: false,
            ..Self::base(DeviceModel::ConnectX5, LinkSpec::edr())
        }
    }

    /// ConnectX-6 HDR: no damming, but packet flood persists (\[31\]).
    pub fn connectx6() -> Self {
        DeviceProfile {
            damming: false,
            ..Self::base(DeviceModel::ConnectX6, LinkSpec::hdr())
        }
    }

    /// The effective Local ACK Timeout field after vendor clamping:
    /// `max(cack, c0)`, with 0 meaning "timer disabled".
    pub fn effective_cack(&self, cack: u8) -> u8 {
        if cack == 0 {
            0
        } else {
            cack.max(self.min_cack)
        }
    }

    /// The timer interval `T_tr` this device actually uses for a requested
    /// `cack`; `None` if the timeout is disabled.
    pub fn t_tr(&self, cack: u8) -> Option<SimTime> {
        t_tr(self.effective_cack(cack))
    }

    /// The actual time-to-timeout `T_o` (what Fig. 2 measures).
    pub fn t_o(&self, cack: u8) -> Option<SimTime> {
        self.t_tr(cack)
            .map(|t| t.mul_permille(self.timeout_stretch_pm))
    }

    /// The real wait a requester performs after receiving an RNR NAK
    /// advertising `delay` (Fig. 1: ≈4.5 ms for 1.28 ms advertised).
    pub fn rnr_actual(&self, delay: SimTime) -> SimTime {
        delay.mul_permille(self.rnr_stretch_pm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rnr_table_roundtrips() {
        assert_eq!(rnr_timer_decode(14), SimTime::from_ms_f64(1.28));
        assert_eq!(rnr_timer_decode(13), SimTime::from_ms_f64(0.96));
        assert_eq!(rnr_timer_decode(0), SimTime::from_ms_f64(655.36));
        assert_eq!(rnr_timer_encode(SimTime::from_ms_f64(1.28)), 14);
        // Rounds up to the next table entry.
        assert_eq!(rnr_timer_encode(SimTime::from_ms_f64(1.0)), 14);
        assert_eq!(rnr_timer_encode(SimTime::from_us(10)), 1);
        // Saturates at the top.
        assert_eq!(rnr_timer_encode(SimTime::from_secs(10)), 31);
    }

    #[test]
    fn rnr_table_is_monotone_after_zero() {
        for w in RNR_TIMER_TABLE_NS[1..].windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn t_tr_formula() {
        assert_eq!(t_tr(0), None);
        assert_eq!(t_tr(1), Some(SimTime::from_ns(8_192)));
        // C_ack = 16 → 4.096 µs · 65536 ≈ 268.4 ms.
        assert_eq!(t_tr(16), Some(SimTime::from_ns(4_096 << 16)));
    }

    #[test]
    fn vendor_clamps_cack() {
        let cx4 = DeviceProfile::connectx4(LinkSpec::fdr());
        assert_eq!(cx4.effective_cack(1), 16);
        assert_eq!(cx4.effective_cack(18), 18);
        assert_eq!(cx4.effective_cack(0), 0);
        let cx5 = DeviceProfile::connectx5();
        assert_eq!(cx5.effective_cack(1), 12);
    }

    #[test]
    fn timeout_floors_match_paper() {
        // ConnectX-4 floor ≈ 500 ms (Fig. 2).
        let cx4 = DeviceProfile::connectx4(LinkSpec::fdr());
        let t = cx4.t_o(1).unwrap();
        assert!(
            (SimTime::from_ms(400)..SimTime::from_ms(600)).contains(&t),
            "cx4 floor {t}"
        );
        // ConnectX-5 floor ≈ 30 ms.
        let cx5 = DeviceProfile::connectx5();
        let t5 = cx5.t_o(1).unwrap();
        assert!(
            (SimTime::from_ms(25)..SimTime::from_ms(40)).contains(&t5),
            "cx5 floor {t5}"
        );
    }

    #[test]
    fn t_o_doubles_per_step_above_floor() {
        let cx4 = DeviceProfile::connectx4(LinkSpec::fdr());
        let a = cx4.t_o(17).unwrap().as_ns();
        let b = cx4.t_o(18).unwrap().as_ns();
        // Doubling up to per-value rounding of the stretch factor.
        assert!(b.abs_diff(a * 2) <= 1, "a={a} b={b}");
    }

    #[test]
    fn rnr_actual_stretches() {
        let cx4 = DeviceProfile::connectx4(LinkSpec::fdr());
        let w = cx4.rnr_actual(SimTime::from_ms_f64(1.28));
        // ≈ 4.5 ms per Fig. 1.
        assert!(
            (SimTime::from_ms(4)..SimTime::from_ms(5)).contains(&w),
            "actual {w}"
        );
    }

    #[test]
    fn damming_flags_per_generation() {
        assert!(DeviceProfile::connectx3().damming);
        assert!(DeviceProfile::connectx4(LinkSpec::edr()).damming);
        assert!(!DeviceProfile::connectx5().damming);
        assert!(!DeviceProfile::connectx6().damming);
    }
}
