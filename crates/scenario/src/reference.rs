//! The reference model: what a correct RC implementation must produce.
//!
//! An [`Expectation`] is computed from a [`Scenario`] alone, with no
//! knowledge of timing, faults or loss: RC guarantees that every work
//! request eventually completes exactly once, in posting order per QP,
//! with the same effect on memory as executing the requests one by one —
//! no matter how many retransmissions, NAKs or ODP stalls happened on
//! the way. Because no two QPs' requests may overlap unless both only
//! read (see [`crate::spec`]), sequential application is exact even
//! though QPs interleave arbitrarily on the wire.
//!
//! The soundness of the exactly-once expectation under retransmission
//! rests on two responder properties the simulator implements (and real
//! NICs must): duplicate non-atomic requests are idempotent re-executions
//! of the same bytes, and duplicate atomics are answered from the
//! responder's replay cache, never re-executed.
//!
//! Sequential memory semantics need one precondition on top: no
//! same-QP *unsequenced buffer races*. A WRITE/SEND gathers its payload
//! from client memory at transmit time, which races the landing of an
//! earlier outstanding READ/atomic response in overlapping client bytes;
//! a duplicate READ is replayed from current server memory, which races
//! later same-QP mutations of overlapping server bytes when the original
//! response is lost. Both are legal RC behaviour (buffer reuse before
//! completion is a user-side race), so the reference model simply
//! refuses such workloads: [`Scenario::validate`] rejects them via
//! [`WrSpec::races_with_later`], and the fuzz generator never emits
//! them.

use ibsim_verbs::WcOpcode;

use crate::spec::{Scenario, WrSpec};

/// Receive work-request ids are the global WR index plus this offset, so
/// requester and responder completions never collide in one id space.
pub(crate) const RECV_ID_BASE: u64 = 1 << 32;

/// Deterministic initial byte of the client region at absolute offset `i`.
pub(crate) fn client_init_byte(i: u64) -> u8 {
    (i as u8) ^ 0xA5
}

/// Deterministic initial byte of the server region at absolute offset `i`.
pub(crate) fn server_init_byte(i: u64) -> u8 {
    (i as u8).wrapping_mul(31).wrapping_add(7)
}

/// A deliberate divergence planted into the reference model, used to
/// demonstrate (and test) the failing-seed minimizer: the simulator is
/// correct, the expectation is wrong, so the oracle fails for exactly the
/// scenarios containing the triggering construct.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Injection {
    /// Expect every WRITE payload byte on QP 0 to arrive incremented by
    /// one. Any scenario keeping at least one WRITE on QP 0 still fails,
    /// so the minimizer must converge to a single-WRITE reproducer.
    WriteCorruption,
}

/// One expected requester-side completion: `(wr id, opcode, bytes)`.
pub type ExpectedComp = (u64, WcOpcode, u32);

/// The predicted observable outcome of a scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expectation {
    /// Final client region contents.
    pub client_mem: Vec<u8>,
    /// Final server region contents.
    pub server_mem: Vec<u8>,
    /// Per-QP requester completions, in completion order.
    pub client_comps: Vec<Vec<ExpectedComp>>,
    /// Per-QP responder RECV completions, in completion order.
    pub server_comps: Vec<Vec<ExpectedComp>>,
}

impl Expectation {
    /// Computes the expectation by sequentially applying each QP's work
    /// requests to the initial memory images.
    pub fn compute(sc: &Scenario, inject: Option<Injection>) -> Expectation {
        let len = sc.region_len() as usize;
        let mut client: Vec<u8> = (0..len as u64).map(client_init_byte).collect();
        let mut server: Vec<u8> = (0..len as u64).map(server_init_byte).collect();
        let mut client_comps = vec![Vec::new(); sc.qps];
        let mut server_comps = vec![Vec::new(); sc.qps];

        for (k, &(qp, wr)) in sc.wrs.iter().enumerate() {
            let base = sc.window(qp);
            let id = k as u64;
            match wr {
                WrSpec::Read { off, len } => {
                    let (a, n) = ((base + off) as usize, len as usize);
                    let src: Vec<u8> = server[a..a + n].to_vec();
                    client[a..a + n].copy_from_slice(&src);
                    client_comps[qp].push((id, WcOpcode::Read, len));
                }
                WrSpec::Write { off, len } => {
                    let (a, n) = ((base + off) as usize, len as usize);
                    let mut payload: Vec<u8> = client[a..a + n].to_vec();
                    if inject == Some(Injection::WriteCorruption) && qp == 0 {
                        for b in &mut payload {
                            *b = b.wrapping_add(1);
                        }
                    }
                    server[a..a + n].copy_from_slice(&payload);
                    client_comps[qp].push((id, WcOpcode::Write, len));
                }
                WrSpec::Send { off, len } => {
                    let (a, n) = ((base + off) as usize, len as usize);
                    let payload: Vec<u8> = client[a..a + n].to_vec();
                    server[a..a + n].copy_from_slice(&payload);
                    client_comps[qp].push((id, WcOpcode::Send, len));
                    server_comps[qp].push((RECV_ID_BASE + id, WcOpcode::Recv, len));
                }
                WrSpec::FetchAdd { off, add } => {
                    let a = (base + off) as usize;
                    let orig = read_u64(&server, a);
                    write_u64(&mut server, a, orig.wrapping_add(add));
                    write_u64(&mut client, a, orig);
                    client_comps[qp].push((id, WcOpcode::FetchAdd, 8));
                }
                WrSpec::CompareSwap { off, compare, swap } => {
                    let a = (base + off) as usize;
                    let orig = read_u64(&server, a);
                    if orig == compare {
                        write_u64(&mut server, a, swap);
                    }
                    write_u64(&mut client, a, orig);
                    client_comps[qp].push((id, WcOpcode::CompareSwap, 8));
                }
            }
        }
        Expectation {
            client_mem: client,
            server_mem: server,
            client_comps,
            server_comps,
        }
    }
}

/// Little-endian u64 load at byte offset `a` (how the simulated NIC and
/// real InfiniBand atomics lay out the 8-byte operand).
fn read_u64(mem: &[u8], a: usize) -> u64 {
    let mut bytes = [0u8; 8];
    bytes.copy_from_slice(&mem[a..a + 8]);
    u64::from_le_bytes(bytes)
}

/// Little-endian u64 store at byte offset `a`.
fn write_u64(mem: &mut [u8], a: usize, v: u64) {
    mem[a..a + 8].copy_from_slice(&v.to_le_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Scenario;

    #[test]
    fn sequential_semantics_on_one_qp() {
        let mut sc = Scenario::base("ref");
        sc.slot = 64;
        sc.wrs = vec![
            // Write client[0..8] into server, then read it back: client
            // keeps its own bytes, server now matches them.
            (0, WrSpec::Write { off: 0, len: 8 }),
            (0, WrSpec::Read { off: 0, len: 8 }),
            // Fetch-add on word 8: original lands in client word 8.
            (0, WrSpec::FetchAdd { off: 8, add: 5 }),
        ];
        let e = Expectation::compute(&sc, None);
        let client0: Vec<u8> = (0..8).map(client_init_byte).collect();
        assert_eq!(&e.server_mem[0..8], &client0[..]);
        assert_eq!(&e.client_mem[0..8], &client0[..]);
        let server_word0: Vec<u8> = (8..16).map(server_init_byte).collect();
        assert_eq!(&e.client_mem[8..16], &server_word0[..]);
        let orig = u64::from_le_bytes(server_word0.try_into().expect("8 bytes"));
        assert_eq!(read_u64(&e.server_mem, 8), orig.wrapping_add(5));
        assert_eq!(
            e.client_comps[0],
            vec![
                (0, WcOpcode::Write, 8),
                (1, WcOpcode::Read, 8),
                (2, WcOpcode::FetchAdd, 8),
            ]
        );
    }

    #[test]
    fn compare_swap_only_swaps_on_match() {
        let mut sc = Scenario::base("cas");
        sc.slot = 32;
        let orig = {
            let bytes: Vec<u8> = (0..8).map(server_init_byte).collect();
            u64::from_le_bytes(bytes.try_into().expect("8 bytes"))
        };
        sc.wrs = vec![
            (
                0,
                WrSpec::CompareSwap {
                    off: 0,
                    compare: 1,
                    swap: 42,
                },
            ),
            (
                0,
                WrSpec::CompareSwap {
                    off: 0,
                    compare: orig,
                    swap: 42,
                },
            ),
        ];
        let e = Expectation::compute(&sc, None);
        // First CAS misses (orig != 1), second matches.
        assert_eq!(read_u64(&e.server_mem, 0), 42);
        assert_eq!(read_u64(&e.client_mem, 0), orig);
    }

    #[test]
    fn injection_perturbs_only_qp0_writes() {
        let mut sc = Scenario::base("inj");
        sc.qps = 2;
        sc.slot = 32;
        sc.wrs = vec![
            (0, WrSpec::Write { off: 0, len: 4 }),
            (1, WrSpec::Write { off: 0, len: 4 }),
        ];
        let plain = Expectation::compute(&sc, None);
        let bent = Expectation::compute(&sc, Some(Injection::WriteCorruption));
        assert_ne!(plain.server_mem[0..4], bent.server_mem[0..4]);
        assert_eq!(plain.server_mem[32..36], bent.server_mem[32..36]);
    }

    #[test]
    fn sends_produce_recv_completions() {
        let mut sc = Scenario::base("send");
        sc.slot = 16;
        sc.wrs = vec![(0, WrSpec::Send { off: 0, len: 6 })];
        let e = Expectation::compute(&sc, None);
        assert_eq!(e.server_comps[0], vec![(RECV_ID_BASE, WcOpcode::Recv, 6)]);
        assert_eq!(&e.server_mem[0..6], &e.client_mem[0..6]);
    }
}
