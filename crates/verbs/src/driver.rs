//! The kernel-driver work queue.
//!
//! ODP is implemented jointly by the RNIC and its kernel driver (§III): the
//! NIC raises network page faults, the driver resolves them and updates the
//! NIC translation table, and — crucially for the packet-flood pitfall
//! (§VI) — refreshes *per-QP* page-status state on the requester side.
//!
//! The driver is modeled as a single serial worker with three work classes:
//!
//! * **page faults** — resolving one takes the common-case 250–1000 µs the
//!   paper cites; highest priority,
//! * **interrupt work** — each duplicate READ response the NIC discards
//!   during a flood costs a little driver time,
//! * **QP resumes** — per-(QP, page) status refreshes, served LIFO (the
//!   paper's Fig. 11a shows the *first* operations learning of the
//!   resolution *last*) and starved by interrupt work in a
//!   weighted-fair-queueing discipline.
//!
//! The positive feedback loop — stalled QPs retransmit every 0.5 ms, the
//! discarded responses generate interrupt work, which delays the resumes
//! that would stop the retransmissions — is exactly the paper's "update
//! failure of page statuses" root cause.

use std::collections::VecDeque;

use ibsim_event::SimTime;

use crate::types::{MrKey, Qpn};

/// One unit of completed driver work, reported back to the NIC glue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DriverWork {
    /// A network page fault finished resolving: the page is now mapped.
    FaultResolved {
        /// Region the page belongs to.
        mr: MrKey,
        /// Page index within the region.
        page: usize,
    },
    /// A per-QP page-status update finished: the QP may use the page.
    QpResumed {
        /// The resumed queue pair.
        qpn: Qpn,
        /// Region the page belongs to.
        mr: MrKey,
        /// Page index within the region.
        page: usize,
    },
    /// A batch of interrupt work was absorbed (no externally visible
    /// effect beyond the time it consumed).
    IrqBatch {
        /// Number of coalesced interrupt items in the batch.
        count: u64,
    },
}

/// Cumulative driver statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DriverStats {
    /// Page faults resolved.
    pub faults_resolved: u64,
    /// Per-QP resumes performed.
    pub qp_resumes: u64,
    /// Interrupt items processed.
    pub irqs_processed: u64,
    /// Total busy time.
    pub busy: SimTime,
}

/// The serial driver work queue for one host.
///
/// The driver itself is passive: the cluster glue pops work with
/// [`Driver::begin_next`], schedules an engine event at the returned
/// completion cost, and applies the [`DriverWork`] effect when it fires.
#[derive(Debug)]
pub struct Driver {
    /// FIFO of pending page faults with their drawn resolution latencies.
    /// A `None` latency is a fault whose latency draw is deferred to the
    /// sharded epoch leader (so the PRNG is consumed in global fault
    /// order); the driver stalls on it until
    /// [`Driver::fill_undrawn`] supplies the value.
    faults: VecDeque<(MrKey, usize, Option<SimTime>)>,
    /// LIFO stack of pending per-QP resumes.
    resumes: Vec<(Qpn, MrKey, usize)>,
    /// Coalesced count of pending interrupt items.
    irq_pending: u64,
    /// Cost of a single resume.
    resume_cost: SimTime,
    /// Cost of a single interrupt item.
    irq_cost: SimTime,
    /// Max interrupt items served per non-interrupt item (WFQ ratio).
    irq_burst: u32,
    /// Interrupt items served since the last non-interrupt item; used to
    /// enforce the WFQ ratio.
    irq_served_in_round: u32,
    /// True while a work item is in flight (its completion event pending).
    busy: bool,
    stats: DriverStats,
}

impl Driver {
    /// Creates a driver with the given per-item costs and WFQ ratio.
    pub fn new(resume_cost: SimTime, irq_cost: SimTime, irq_burst: u32) -> Self {
        Driver {
            faults: VecDeque::new(),
            resumes: Vec::new(),
            irq_pending: 0,
            resume_cost,
            irq_cost,
            irq_burst: irq_burst.max(1),
            irq_served_in_round: 0,
            busy: false,
            stats: DriverStats::default(),
        }
    }

    /// Queues a page-fault resolution taking `latency`.
    pub fn push_fault(&mut self, mr: MrKey, page: usize, latency: SimTime) {
        self.faults.push_back((mr, page, Some(latency)));
    }

    /// Queues a page-fault resolution whose latency has not been drawn
    /// yet (sharded execution defers the draw to the epoch leader). The
    /// driver treats the undrawn fault as head-of-line work it cannot
    /// start: [`Driver::begin_next`] yields nothing until
    /// [`Driver::fill_undrawn`] supplies the latency, exactly as the
    /// sequential driver would have been busy on this fault first.
    pub fn push_fault_undrawn(&mut self, mr: MrKey, page: usize) {
        self.faults.push_back((mr, page, None));
    }

    /// True when the driver is idle but cannot start its next item
    /// because the head-of-line fault is awaiting its latency draw.
    pub fn blocked_on_undrawn(&self) -> bool {
        !self.busy && matches!(self.faults.front(), Some(&(_, _, None)))
    }

    /// Supplies the leader-drawn latency for the oldest undrawn fault.
    ///
    /// # Panics
    ///
    /// Panics if no undrawn fault is queued: fills are produced one per
    /// deposited draw request, so a miss is a protocol bug.
    pub fn fill_undrawn(&mut self, latency: SimTime) {
        let slot = self
            .faults
            .iter_mut()
            .find(|f| f.2.is_none())
            .expect("invariant: fill_undrawn without a pending undrawn fault");
        slot.2 = Some(latency);
    }

    /// Queues a per-QP page-status update.
    pub fn push_resume(&mut self, qpn: Qpn, mr: MrKey, page: usize) {
        self.resumes.push((qpn, mr, page));
    }

    /// Queues one interrupt work item (a discarded duplicate response).
    pub fn push_irq(&mut self) {
        self.irq_pending += 1;
    }

    /// True if any work is waiting.
    pub fn has_work(&self) -> bool {
        !self.faults.is_empty() || !self.resumes.is_empty() || self.irq_pending > 0
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> DriverStats {
        self.stats
    }

    /// Starts the next work item, if idle and work is pending. Returns the
    /// work descriptor and its processing cost; the caller must invoke
    /// [`Driver::finish`] when the cost has elapsed.
    ///
    /// Priority: page faults first; then interrupt work and resumes in a
    /// weighted-fair rotation of at most `irq_burst` interrupt items per
    /// resume.
    pub fn begin_next(&mut self) -> Option<(DriverWork, SimTime)> {
        if self.busy {
            return None;
        }
        // Page faults preempt everything else: the hardware fault queue is
        // small and the NIC blocks on it. An undrawn head fault blocks the
        // whole queue — lower classes must not overtake it, or the busy
        // timeline would diverge from the sequential run.
        match self.faults.front() {
            Some(&(_, _, None)) => return None,
            Some(&(_, _, Some(_))) => {
                let (mr, page, latency) = self
                    .faults
                    .pop_front()
                    .expect("invariant: fault queue head vanished");
                let latency = latency.expect("invariant: drawn fault lost its latency");
                self.busy = true;
                self.stats.faults_resolved += 1;
                self.stats.busy += latency;
                return Some((DriverWork::FaultResolved { mr, page }, latency));
            }
            None => {}
        }
        let irq_due = self.irq_pending > 0
            && (self.irq_served_in_round < self.irq_burst || self.resumes.is_empty());
        if irq_due {
            let batch = self
                .irq_pending
                .min((self.irq_burst - self.irq_served_in_round.min(self.irq_burst)).max(1) as u64);
            self.irq_pending -= batch;
            self.irq_served_in_round += batch as u32;
            let cost = self.irq_cost * batch;
            self.busy = true;
            self.stats.irqs_processed += batch;
            self.stats.busy += cost;
            return Some((DriverWork::IrqBatch { count: batch }, cost));
        }
        if let Some((qpn, mr, page)) = self.resumes.pop() {
            self.irq_served_in_round = 0;
            self.busy = true;
            self.stats.qp_resumes += 1;
            self.stats.busy += self.resume_cost;
            return Some((DriverWork::QpResumed { qpn, mr, page }, self.resume_cost));
        }
        None
    }

    /// Marks the in-flight work item as finished.
    ///
    /// # Panics
    ///
    /// Panics if no work was in flight (a scheduling bug in the caller).
    pub fn finish(&mut self) {
        assert!(self.busy, "driver finish() without begin_next()");
        self.busy = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn driver() -> Driver {
        Driver::new(SimTime::from_us(20), SimTime::from_us(2), 4)
    }

    #[test]
    fn idle_driver_has_no_work() {
        let mut d = driver();
        assert!(!d.has_work());
        assert_eq!(d.begin_next(), None);
    }

    #[test]
    fn faults_run_first() {
        let mut d = driver();
        d.push_resume(Qpn(1), MrKey(1), 0);
        d.push_irq();
        d.push_fault(MrKey(1), 0, SimTime::from_us(300));
        let (w, cost) = d.begin_next().unwrap();
        assert_eq!(
            w,
            DriverWork::FaultResolved {
                mr: MrKey(1),
                page: 0
            }
        );
        assert_eq!(cost, SimTime::from_us(300));
        assert_eq!(d.begin_next(), None, "serial: busy driver yields nothing");
        d.finish();
        assert!(d.begin_next().is_some(), "idle again: the next item starts");
    }

    #[test]
    fn resumes_pop_lifo() {
        let mut d = driver();
        d.push_resume(Qpn(1), MrKey(1), 0);
        d.push_resume(Qpn(2), MrKey(1), 0);
        d.push_resume(Qpn(3), MrKey(1), 0);
        let mut order = Vec::new();
        while let Some((w, _)) = d.begin_next() {
            if let DriverWork::QpResumed { qpn, .. } = w {
                order.push(qpn.0);
            }
            d.finish();
        }
        assert_eq!(order, vec![3, 2, 1], "most recently stalled resumes first");
    }

    #[test]
    fn wfq_alternates_irq_and_resumes() {
        let mut d = driver();
        for _ in 0..10 {
            d.push_irq();
        }
        d.push_resume(Qpn(1), MrKey(1), 0);
        d.push_resume(Qpn(2), MrKey(1), 0);
        // First: a burst of at most 4 IRQs.
        let (w, cost) = d.begin_next().unwrap();
        assert_eq!(w, DriverWork::IrqBatch { count: 4 });
        assert_eq!(cost, SimTime::from_us(8));
        d.finish();
        // Burst budget exhausted: a resume gets through.
        let (w, _) = d.begin_next().unwrap();
        assert!(matches!(w, DriverWork::QpResumed { qpn: Qpn(2), .. }));
        d.finish();
        // Round restarts: IRQs again.
        let (w, _) = d.begin_next().unwrap();
        assert_eq!(w, DriverWork::IrqBatch { count: 4 });
        d.finish();
        let (w, _) = d.begin_next().unwrap();
        assert!(matches!(w, DriverWork::QpResumed { qpn: Qpn(1), .. }));
        d.finish();
        // Remaining IRQs drain even with no resumes left.
        let (w, _) = d.begin_next().unwrap();
        assert_eq!(w, DriverWork::IrqBatch { count: 2 });
        d.finish();
        assert!(!d.has_work());
    }

    #[test]
    fn irq_only_drains_without_resumes() {
        let mut d = driver();
        for _ in 0..9 {
            d.push_irq();
        }
        let mut total = 0;
        while let Some((w, _)) = d.begin_next() {
            if let DriverWork::IrqBatch { count } = w {
                total += count;
            }
            d.finish();
        }
        assert_eq!(total, 9);
    }

    #[test]
    fn stats_accumulate() {
        let mut d = driver();
        d.push_fault(MrKey(1), 2, SimTime::from_us(500));
        d.push_resume(Qpn(9), MrKey(1), 2);
        d.push_irq();
        while let Some((_, _)) = d.begin_next() {
            d.finish();
        }
        let s = d.stats();
        assert_eq!(s.faults_resolved, 1);
        assert_eq!(s.qp_resumes, 1);
        assert_eq!(s.irqs_processed, 1);
        assert_eq!(
            s.busy,
            SimTime::from_us(500) + SimTime::from_us(20) + SimTime::from_us(2)
        );
    }

    #[test]
    fn undrawn_fault_blocks_queue_until_filled() {
        let mut d = driver();
        d.push_fault_undrawn(MrKey(1), 3);
        d.push_resume(Qpn(1), MrKey(1), 3);
        d.push_irq();
        // Head-of-line undrawn fault: nothing may start, not even the
        // lower classes behind it.
        assert!(d.has_work());
        assert!(d.blocked_on_undrawn());
        assert_eq!(d.begin_next(), None);
        d.fill_undrawn(SimTime::from_us(400));
        assert!(!d.blocked_on_undrawn());
        let (w, cost) = d.begin_next().unwrap();
        assert_eq!(
            w,
            DriverWork::FaultResolved {
                mr: MrKey(1),
                page: 3
            }
        );
        assert_eq!(cost, SimTime::from_us(400));
        d.finish();
        // Order within the fault FIFO is preserved across a fill.
        d.push_fault(MrKey(1), 0, SimTime::from_us(250));
        d.push_fault_undrawn(MrKey(1), 1);
        let (w, _) = d.begin_next().unwrap();
        assert!(matches!(w, DriverWork::FaultResolved { page: 0, .. }));
        d.finish();
        assert!(d.blocked_on_undrawn());
        d.fill_undrawn(SimTime::from_us(260));
        let (w, _) = d.begin_next().unwrap();
        assert!(matches!(w, DriverWork::FaultResolved { page: 1, .. }));
        d.finish();
    }

    #[test]
    #[should_panic(expected = "without a pending undrawn fault")]
    fn fill_without_undrawn_panics() {
        let mut d = driver();
        d.push_fault(MrKey(1), 0, SimTime::from_us(250));
        d.fill_undrawn(SimTime::from_us(300));
    }

    #[test]
    #[should_panic(expected = "finish() without begin_next()")]
    fn finish_when_idle_panics() {
        driver().finish();
    }
}
