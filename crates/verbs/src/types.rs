//! Identifiers and protocol-wide constants.

use core::fmt;

use ibsim_event::{Line, Render};

/// Default InfiniBand path MTU used by the simulator (4096 bytes, the
/// largest the architecture allows and what the paper's clusters use).
pub const DEFAULT_MTU: u32 = 4096;

/// Size of an OS page; communication buffers in the paper are aligned to
/// 4096-byte boundaries "considering the page size" (§V).
pub const PAGE_SIZE: u64 = 4096;

/// Local route header + base transport header + CRCs, charged to every
/// packet on the wire.
pub const BASE_HEADER_BYTES: u32 = 26;
/// RDMA extended transport header (READ/WRITE requests).
pub const RETH_BYTES: u32 = 16;
/// ACK extended transport header (ACKs and NAKs).
pub const AETH_BYTES: u32 = 4;
/// Atomic extended transport header (FETCH_ADD / CMP_SWAP requests).
pub const ATOMIC_ETH_BYTES: u32 = 28;

/// A host (one machine with one RNIC) in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(pub usize);

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "host{}", self.0)
    }
}

/// A queue pair number, unique within one RNIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Qpn(pub u32);

impl fmt::Display for Qpn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "qp{}", self.0)
    }
}

/// A memory region key (doubles as lkey and rkey), unique within one RNIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MrKey(pub u32);

impl fmt::Display for MrKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mr{}", self.0)
    }
}

/// Caller-chosen work-request identifier, reported back in completions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WrId(pub u64);

impl From<u64> for WrId {
    fn from(v: u64) -> Self {
        WrId(v)
    }
}

impl fmt::Display for WrId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wr{}", self.0)
    }
}

/// A 24-bit Packet Sequence Number with wraparound arithmetic.
///
/// InfiniBand PSNs live in `[0, 2^24)`; ordering is defined modulo 2^24
/// with a half-range horizon, exactly like TCP sequence numbers.
///
/// # Examples
///
/// ```
/// use ibsim_verbs::Psn;
///
/// let p = Psn::new(0xFF_FFFF);
/// assert_eq!(p.next(), Psn::new(0));
/// assert!(p.precedes(p.next()));
/// assert_eq!(p.next().distance_from(p), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Psn(u32);

impl Psn {
    /// The PSN modulus (2^24).
    pub const MODULUS: u32 = 1 << 24;

    /// Creates a PSN, reducing the value modulo 2^24.
    pub const fn new(v: u32) -> Self {
        Psn(v & (Self::MODULUS - 1))
    }

    /// Raw 24-bit value.
    pub const fn value(self) -> u32 {
        self.0
    }

    /// The PSN after this one.
    #[must_use]
    pub const fn next(self) -> Psn {
        Psn::new(self.0.wrapping_add(1))
    }

    /// This PSN advanced by `n`.
    #[must_use]
    pub const fn add(self, n: u32) -> Psn {
        Psn::new(self.0.wrapping_add(n))
    }

    /// Forward distance from `earlier` to `self`, modulo 2^24.
    pub const fn distance_from(self, earlier: Psn) -> u32 {
        self.0.wrapping_sub(earlier.0) & (Self::MODULUS - 1)
    }

    /// True if `self` is strictly before `other` within the half-range
    /// horizon (2^23): the standard serial-number comparison.
    pub const fn precedes(self, other: Psn) -> bool {
        let d = other.distance_from(self);
        d != 0 && d < (Self::MODULUS >> 1)
    }

    /// True if `self` equals or precedes `other`.
    pub const fn at_or_before(self, other: Psn) -> bool {
        self.0 == other.0 || self.precedes(other)
    }
}

impl Render for Psn {
    fn render(&self, out: &mut Line) {
        out.push(b"psn").uint(u64::from(self.0));
    }
}

impl fmt::Display for Psn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Line::pad(self, f)
    }
}

/// Number of packets needed to carry `len` payload bytes at `mtu`.
/// Zero-length messages still take one packet.
///
/// # Panics
///
/// Panics if `mtu` is zero.
pub fn packets_for(len: u32, mtu: u32) -> u32 {
    assert!(mtu > 0, "mtu must be positive");
    if len == 0 {
        1
    } else {
        len.div_ceil(mtu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn psn_wraps_at_24_bits() {
        let p = Psn::new(Psn::MODULUS - 1);
        assert_eq!(p.next(), Psn::new(0));
        assert_eq!(Psn::new(Psn::MODULUS), Psn::new(0));
        assert_eq!(p.add(3), Psn::new(2));
    }

    #[test]
    fn psn_ordering_across_wrap() {
        let a = Psn::new(Psn::MODULUS - 2);
        let b = Psn::new(1);
        assert!(a.precedes(b));
        assert!(!b.precedes(a));
        assert_eq!(b.distance_from(a), 3);
    }

    #[test]
    fn psn_add_and_distance_are_inverse_across_wrap() {
        // A go-back-N window straddling the 24-bit boundary: walk a
        // 32-PSN window whose head sits just below 0xFF_FFFF and whose
        // tail wraps to small values. `add` and `distance_from` must
        // stay exact inverses, and ordering must hold member to member.
        let base = Psn::new(0xFF_FFF8);
        for n in 0..32 {
            let p = base.add(n);
            assert_eq!(p.distance_from(base), n);
            assert_eq!(p.value(), (0xFF_FFF8 + n) & (Psn::MODULUS - 1));
            assert!(base.at_or_before(p));
            if n > 0 {
                assert!(base.add(n - 1).precedes(p));
            }
        }
        // The exact boundary pair.
        assert_eq!(Psn::new(0xFF_FFFF).add(1), Psn::new(0));
        assert_eq!(Psn::new(0).distance_from(Psn::new(0xFF_FFFF)), 1);
        // Going the long way round is the modulus complement, not -1.
        assert_eq!(
            Psn::new(0xFF_FFFF).distance_from(Psn::new(0)),
            Psn::MODULUS - 1
        );
    }

    #[test]
    fn psn_half_range_horizon() {
        let a = Psn::new(0);
        let far = Psn::new(1 << 23);
        // Exactly half the range away is "not before" in either direction.
        assert!(!a.precedes(far) || !far.precedes(a));
        let near = Psn::new((1 << 23) - 1);
        assert!(a.precedes(near));
    }

    #[test]
    fn at_or_before_includes_equality() {
        let a = Psn::new(42);
        assert!(a.at_or_before(a));
        assert!(a.at_or_before(a.next()));
        assert!(!a.next().at_or_before(a));
    }

    #[test]
    fn packets_for_rounds_up() {
        assert_eq!(packets_for(0, 4096), 1);
        assert_eq!(packets_for(1, 4096), 1);
        assert_eq!(packets_for(4096, 4096), 1);
        assert_eq!(packets_for(4097, 4096), 2);
        assert_eq!(packets_for(10_000, 4096), 3);
    }

    #[test]
    #[should_panic(expected = "mtu must be positive")]
    fn packets_for_zero_mtu_panics() {
        packets_for(10, 0);
    }
}
