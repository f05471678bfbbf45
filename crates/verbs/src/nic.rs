//! The RNIC: QPs, memory regions, completion queue and flood bookkeeping
//! for one host.

use std::collections::{BTreeMap, VecDeque};

use ibsim_fabric::Lid;

use crate::device::DeviceProfile;
use crate::mem::{MemRegion, MrMode};
use crate::qp::{Qp, QpConfig};
use crate::types::{HostId, MrKey, Qpn};
use crate::wr::Completion;

/// One RDMA network interface card and its host-side objects.
#[derive(Debug)]
pub struct Nic {
    /// Owning host.
    pub host: HostId,
    /// Port address on the subnet.
    pub lid: Lid,
    /// Hardware/driver model.
    pub profile: DeviceProfile,
    /// Registered memory regions, keyed by lkey/rkey.
    pub mrs: BTreeMap<MrKey, MemRegion>,
    /// QPs in creation order, indexed by `qpn − 1`: QPNs are handed out
    /// densely from 1 and a QP is never destroyed.
    qps: Vec<Qp>,
    /// Per QP (same index): was it in fault recovery after its last
    /// handler turn? `recovery_count` is the number of set flags (the
    /// timer-load model's input).
    in_recovery: Vec<bool>,
    recovery_count: usize,
    /// Per QP (same index): [`Qp::awaits_page`] after its last handler
    /// turn, so a resolved fault finds its audience by a byte scan.
    awaits_page: Vec<bool>,
    next_mr: u32,
    cq: VecDeque<Completion>,
    /// Requester-side QPs waiting for a page fault, per page: in
    /// first-registration order, which decides who goes stale, beside a
    /// QPN bitset that makes a repeat registration one bit test.
    fault_waiters: BTreeMap<(MrKey, usize), FaultWaiters>,
}

/// The QPs registered on one faulting page.
#[derive(Debug, Default)]
struct FaultWaiters {
    /// In first-registration order.
    order: Vec<Qpn>,
    /// Bit `qpn` is set once `qpn` is in `order`.
    seen: Vec<u64>,
}

/// The table index of `qpn`; `None` for the never-assigned QPN 0.
fn slot(qpn: Qpn) -> Option<usize> {
    (qpn.0 as usize).checked_sub(1)
}

impl Nic {
    /// Creates a NIC on `host` at port `lid`.
    pub fn new(host: HostId, lid: Lid, profile: DeviceProfile) -> Self {
        Nic {
            host,
            lid,
            profile,
            mrs: BTreeMap::new(),
            qps: Vec::new(),
            in_recovery: Vec::new(),
            recovery_count: 0,
            awaits_page: Vec::new(),
            next_mr: 1,
            cq: VecDeque::new(),
            fault_waiters: BTreeMap::new(),
        }
    }

    /// Creates a QP in the RTS-pending state; connect it before use.
    pub fn create_qp(&mut self, cfg: QpConfig) -> Qpn {
        let qpn = Qpn(self.qps.len() as u32 + 1);
        self.qps.push(Qp::new(qpn, self.lid, cfg));
        self.in_recovery.push(false);
        self.awaits_page.push(false);
        qpn
    }

    /// Registers `[base, base+len)` as a memory region.
    ///
    /// # Panics
    ///
    /// Panics, naming the range, if it reaches past
    /// [`Memory::ADDR_LIMIT`](crate::Memory::ADDR_LIMIT) (see
    /// [`MemRegion::new`]).
    pub fn reg_mr(&mut self, base: u64, len: u64, mode: MrMode) -> MrKey {
        let key = MrKey(self.next_mr);
        self.next_mr += 1;
        self.mrs.insert(key, MemRegion::new(key, base, len, mode));
        key
    }

    /// Immutable QP access.
    pub fn qp(&self, qpn: Qpn) -> Option<&Qp> {
        self.qps.get(slot(qpn)?)
    }

    /// Mutable QP access.
    pub fn qp_mut(&mut self, qpn: Qpn) -> Option<&mut Qp> {
        self.qps.get_mut(slot(qpn)?)
    }

    /// QPs in creation (= QPN) order.
    pub fn qps(&self) -> &[Qp] {
        &self.qps
    }

    /// QPNs in creation order. The iterator owns its range, so the NIC
    /// can be mutated while walking it.
    pub fn qpns(&self) -> impl Iterator<Item = Qpn> {
        (1..=self.qps.len() as u32).map(Qpn)
    }

    /// Splits the NIC into the pieces a QP handler needs simultaneously:
    /// the QP itself, the MR table, and the device profile.
    pub fn split_mut(
        &mut self,
        qpn: Qpn,
    ) -> Option<(&mut Qp, &mut BTreeMap<MrKey, MemRegion>, &DeviceProfile)> {
        let qp = self.qps.get_mut(slot(qpn)?)?;
        Some((qp, &mut self.mrs, &self.profile))
    }

    /// Number of QPs.
    pub fn qp_count(&self) -> usize {
        self.qps.len()
    }

    /// Pushes a completion onto the host CQ.
    pub fn push_completion(&mut self, c: Completion) {
        self.cq.push_back(c);
    }

    /// Drains the completion queue.
    pub fn poll_cq(&mut self) -> Vec<Completion> {
        self.cq.drain(..).collect()
    }

    /// Completions currently queued.
    pub fn cq_len(&self) -> usize {
        self.cq.len()
    }

    /// Registers `qpn` as waiting for `(mr, page)` (requester side); used
    /// by the flood model to decide who needs a per-QP resume.
    pub fn register_fault_waiter(&mut self, qpn: Qpn, mr: MrKey, page: usize) {
        let waiters = self.fault_waiters.entry((mr, page)).or_default();
        let (w, bit) = (qpn.0 as usize / 64, 1u64 << (qpn.0 % 64));
        if w >= waiters.seen.len() {
            waiters.seen.resize(w + 1, 0);
        }
        if waiters.seen[w] & bit == 0 {
            waiters.seen[w] |= bit;
            waiters.order.push(qpn);
        }
    }

    /// Takes (and clears) the waiter list for `(mr, page)`, in
    /// first-registration order.
    pub fn take_fault_waiters(&mut self, mr: MrKey, page: usize) -> Vec<Qpn> {
        self.fault_waiters
            .remove(&(mr, page))
            .map(|w| w.order)
            .unwrap_or_default()
    }

    /// Refreshes the recovery-membership and the page interest of `qpn`
    /// after an interaction; returns the number of QPs currently in
    /// recovery.
    pub fn update_recovery(&mut self, qpn: Qpn) -> usize {
        if let Some(i) = slot(qpn).filter(|&i| i < self.qps.len()) {
            let now = self.qps[i].in_recovery();
            let was = std::mem::replace(&mut self.in_recovery[i], now);
            self.recovery_count = self.recovery_count + usize::from(now) - usize::from(was);
            self.awaits_page[i] = self.qps[i].awaits_page();
        }
        self.recovery_count
    }

    /// [`Qp::awaits_page`] of `qpn` as of its last
    /// [`Nic::update_recovery`]; false for a QPN never handed out.
    pub(crate) fn awaits_page(&self, qpn: Qpn) -> bool {
        slot(qpn).and_then(|i| self.awaits_page.get(i)) == Some(&true)
    }

    /// Number of QPs currently in fault recovery.
    pub fn recovery_count(&self) -> usize {
        self.recovery_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibsim_fabric::LinkSpec;

    fn nic() -> Nic {
        Nic::new(HostId(0), Lid(1), DeviceProfile::connectx4(LinkSpec::fdr()))
    }

    #[test]
    fn qpns_are_dense_and_ordered() {
        let mut n = nic();
        let a = n.create_qp(QpConfig::default());
        let b = n.create_qp(QpConfig::default());
        assert_eq!(a, Qpn(1));
        assert_eq!(b, Qpn(2));
        assert_eq!(n.qpns().collect::<Vec<_>>(), [a, b]);
        assert_eq!(n.qp_count(), 2);
        assert_eq!(n.qp(b).map(|q| q.qpn()), Some(b));
        assert_eq!(n.qps()[1].qpn(), b);
    }

    #[test]
    fn unassigned_qpns_find_nothing() {
        // QPN 0 is never handed out; the `qpn − 1` index must not
        // underflow on it, nor run past the table.
        let mut n = nic();
        let a = n.create_qp(QpConfig::default());
        for q in [Qpn(0), Qpn(a.0 + 1), Qpn(u32::MAX)] {
            assert!(n.qp(q).is_none(), "{q}");
            assert!(n.qp_mut(q).is_none(), "{q}");
            assert!(n.split_mut(q).is_none(), "{q}");
            assert_eq!(n.update_recovery(q), 0, "{q}");
            assert!(!n.awaits_page(q), "{q}");
        }
        assert!(n.qp(a).is_some());
    }

    #[test]
    fn mr_keys_are_unique() {
        let mut n = nic();
        let a = n.reg_mr(0x1000, 4096, MrMode::Pinned);
        let b = n.reg_mr(0x9000, 4096, MrMode::Odp);
        assert_ne!(a, b);
        assert_eq!(n.mrs[&a].mode(), MrMode::Pinned);
        assert_eq!(n.mrs[&b].mode(), MrMode::Odp);
    }

    #[test]
    fn fault_waiters_dedupe_and_preserve_order() {
        let mut n = nic();
        let q1 = n.create_qp(QpConfig::default());
        let q2 = n.create_qp(QpConfig::default());
        n.register_fault_waiter(q1, MrKey(1), 0);
        n.register_fault_waiter(q2, MrKey(1), 0);
        n.register_fault_waiter(q1, MrKey(1), 0); // duplicate
        assert_eq!(n.take_fault_waiters(MrKey(1), 0), vec![q1, q2]);
        assert!(n.take_fault_waiters(MrKey(1), 0).is_empty());
    }

    /// 150 QPNs, so the seen-bitset spans three words, registered in a
    /// scrambled order with every QP repeated later: the list keeps first
    /// registrations only, in their order, and a take leaves the page
    /// with no memory of who waited.
    #[test]
    fn fault_waiters_past_one_bitset_word() {
        let mut n = nic();
        let qpns: Vec<Qpn> = (0..150).map(|_| n.create_qp(QpConfig::default())).collect();
        // 67 is coprime to 150: a walk over every QP, out of QPN order.
        let first: Vec<Qpn> = (0..150).map(|i| qpns[i * 67 % 150]).collect();
        for (i, &q) in first.iter().enumerate() {
            n.register_fault_waiter(q, MrKey(1), 7);
            n.register_fault_waiter(first[i / 2], MrKey(1), 7); // seen
            n.register_fault_waiter(q, MrKey(2), 7); // another page
        }
        for &q in first.iter().rev() {
            n.register_fault_waiter(q, MrKey(1), 7);
        }
        assert_eq!(n.take_fault_waiters(MrKey(1), 7), first);
        let again = [qpns[140], qpns[3], qpns[70], qpns[3]];
        for q in again {
            n.register_fault_waiter(q, MrKey(1), 7);
        }
        assert_eq!(
            n.take_fault_waiters(MrKey(1), 7),
            [qpns[140], qpns[3], qpns[70]]
        );
        assert_eq!(n.take_fault_waiters(MrKey(2), 7), first);
    }

    #[test]
    fn cq_drains_in_order() {
        use crate::wr::{WcOpcode, WcStatus};
        use ibsim_event::SimTime;
        let mut n = nic();
        for i in 0..3 {
            n.push_completion(Completion {
                wr_id: crate::types::WrId(i),
                qpn: Qpn(1),
                status: WcStatus::Success,
                opcode: WcOpcode::Read,
                bytes: 0,
                at: SimTime::ZERO,
            });
        }
        assert_eq!(n.cq_len(), 3);
        let ids: Vec<u64> = n.poll_cq().iter().map(|c| c.wr_id.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(n.cq_len(), 0);
    }
}
