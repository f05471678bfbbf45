//! Fault-lifecycle spans.
//!
//! A span follows one network page fault through the stages the paper
//! measures (§V damming, §VI flood, Fig. 1/5/8 timelines):
//!
//! 1. **raised** — a QP touched an unmapped ODP page and the NIC raised
//!    a network page fault;
//! 2. **queue wait** — the fault sits in the driver's serial work queue
//!    behind earlier faults and interrupt work;
//! 3. **resolution** — the driver services the fault (pin + map);
//! 4. **propagation** — per-QP page-status updates for QPs beyond the
//!    NIC's instant-resume capacity serialize through the driver
//!    (§VI-B "update failure of page statuses");
//! 5. **retransmit drain** — resumed QPs retransmit and their stalled
//!    work requests finally complete.
//!
//! Stage boundaries are monotone timestamps, so the four stage durations
//! sum *exactly* to the end-to-end fault latency — the decomposition the
//! paper had to reverse-engineer from `ibdump` captures.

use std::collections::BTreeMap;
use std::ops::Bound;

use ibsim_event::SimTime;

use crate::registry::{dense_cell, dense_index};

/// The names of the four span stages, in order.
pub const STAGE_NAMES: [&str; 4] = [
    "queue_wait",
    "resolution",
    "propagation",
    "retransmit_drain",
];

/// One completed (or still-open) fault lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpan {
    /// Host the fault was raised on.
    pub host: u64,
    /// Memory region key (raw).
    pub mr: u32,
    /// Page index within the region.
    pub page: u64,
    /// When the NIC raised the fault.
    pub raised: SimTime,
    /// When the driver began servicing it (end of queue wait).
    pub service_begin: Option<SimTime>,
    /// When the driver finished mapping the page.
    pub resolved: Option<SimTime>,
    /// When the last serialized per-QP page-status update landed
    /// (equals `resolved` when every QP resumed instantly).
    pub propagated: Option<SimTime>,
    /// When the last waiting QP's stalled work request completed
    /// (equals `propagated` when no QP was waiting).
    pub completed: Option<SimTime>,
    /// QPs that were waiting on the page when it resolved.
    pub waiters: u32,
    /// Of those, QPs whose page status went stale and needed a
    /// serialized driver resume.
    pub stale_qps: u32,
}

impl FaultSpan {
    fn new(host: u64, mr: u32, page: u64, raised: SimTime) -> Self {
        FaultSpan {
            host,
            mr,
            page,
            raised,
            service_begin: None,
            resolved: None,
            propagated: None,
            completed: None,
            waiters: 0,
            stale_qps: 0,
        }
    }

    /// The four named stage durations, or `None` while the span is open.
    ///
    /// Ordered as [`STAGE_NAMES`]; the durations sum to
    /// [`FaultSpan::end_to_end`] by construction.
    pub fn stages(&self) -> Option<[(&'static str, SimTime); 4]> {
        let t1 = self.service_begin?;
        let t2 = self.resolved?;
        let t3 = self.propagated?;
        let t4 = self.completed?;
        Some([
            (STAGE_NAMES[0], t1 - self.raised),
            (STAGE_NAMES[1], t2 - t1),
            (STAGE_NAMES[2], t3 - t2),
            (STAGE_NAMES[3], t4 - t3),
        ])
    }

    /// Total raised → completed latency, or `None` while open.
    pub fn end_to_end(&self) -> Option<SimTime> {
        Some(self.completed? - self.raised)
    }
}

/// Book-keeping for a span that has not completed yet.
#[derive(Debug)]
struct OpenSpan {
    span: FaultSpan,
    /// Serialized resumes still outstanding.
    stale_remaining: u32,
    /// Waiting QPs that have not completed a work request since
    /// resolution.
    pending_waiters: Vec<u32>,
    /// Completion time of the most recent waiter to finish.
    last_waiter_done: Option<SimTime>,
}

impl OpenSpan {
    /// Closes the span if resolution, propagation and the waiter drain
    /// have all finished. Returns the closed span.
    fn try_close(&mut self) -> Option<FaultSpan> {
        if self.span.resolved.is_none()
            || self.stale_remaining != 0
            || !self.pending_waiters.is_empty()
        {
            return None;
        }
        let propagated = self.span.propagated?;
        // Monotone clamp: a waiter that finished before the final
        // serialized resume cannot pull `completed` before `propagated`.
        let completed = self.last_waiter_done.unwrap_or(propagated).max(propagated);
        self.span.completed = Some(completed);
        Some(self.span.clone())
    }
}

/// Records fault-lifecycle spans, keyed while open by
/// `(host, mr, page)` — at most one fault per page is in flight because
/// a faulting page parks later touches on the waiter list.
#[derive(Debug, Default)]
pub struct SpanStore {
    open: BTreeMap<(u64, u32, u64), OpenSpan>,
    /// For each `(host, qpn)`, at its dense `[host][qpn]` index, how many
    /// times the open spans' waiter lists name it, so that a completion
    /// nobody waits on costs two indexes and not a walk of every open
    /// span.
    waiting: Vec<Vec<usize>>,
    closed: Vec<FaultSpan>,
}

impl SpanStore {
    /// A fault was raised for `(host, mr, page)` at `now`.
    ///
    /// A second raise while the first is open is ignored (the page is
    /// already `Faulting`; real NICs coalesce the fault the same way).
    pub fn fault_raised(&mut self, host: u64, mr: u32, page: u64, now: SimTime) {
        self.open
            .entry((host, mr, page))
            .or_insert_with(|| OpenSpan {
                span: FaultSpan::new(host, mr, page, now),
                stale_remaining: 0,
                pending_waiters: Vec::new(),
                last_waiter_done: None,
            });
    }

    /// The driver began servicing the fault (it left the work queue).
    pub fn service_begin(&mut self, host: u64, mr: u32, page: u64, now: SimTime) {
        if let Some(o) = self.open.get_mut(&(host, mr, page)) {
            if o.span.service_begin.is_none() {
                o.span.service_begin = Some(now);
            }
        }
    }

    /// The driver finished mapping the page. `waiters` are the QPs that
    /// were parked on it; `stale` of them need serialized resumes.
    pub fn fault_resolved(
        &mut self,
        host: u64,
        mr: u32,
        page: u64,
        now: SimTime,
        waiters: &[u32],
        stale: u32,
    ) {
        let Some(o) = self.open.get_mut(&(host, mr, page)) else {
            return;
        };
        // A fault serviced without an observed queue-pop (e.g. telemetry
        // enabled mid-run) still yields a well-formed span.
        if o.span.service_begin.is_none() {
            o.span.service_begin = Some(now);
        }
        o.span.resolved = Some(now);
        o.span.waiters = waiters.len() as u32;
        o.span.stale_qps = stale;
        o.stale_remaining = stale;
        for &qpn in &o.pending_waiters {
            if let Some(n) = dense_cell(&mut self.waiting, host, qpn) {
                *n -= 1;
            }
        }
        // A waiter past the id space has no count, so no completion could
        // check it off: the span drains without it.
        o.pending_waiters.clear();
        for &qpn in waiters {
            if let Some(n) = dense_cell(&mut self.waiting, host, qpn) {
                *n += 1;
                o.pending_waiters.push(qpn);
            }
        }
        if o.stale_remaining == 0 {
            o.span.propagated = Some(now);
        }
        self.finish(host, mr, page);
    }

    /// A serialized per-QP resume for this page finished.
    pub fn resume_done(&mut self, host: u64, mr: u32, page: u64, now: SimTime) {
        if let Some(o) = self.open.get_mut(&(host, mr, page)) {
            o.stale_remaining = o.stale_remaining.saturating_sub(1);
            if o.stale_remaining == 0 && o.span.propagated.is_none() {
                o.span.propagated = Some(now);
            }
        }
        self.finish(host, mr, page);
    }

    /// A work request completed on `(host, qpn)`; any open span waiting
    /// on that QP checks it off its drain list. Spans close in key order,
    /// and the walk covers `host`'s spans only until the last waiter
    /// entry naming the QP is checked off.
    pub fn qp_completion(&mut self, host: u64, qpn: u32, now: SimTime) {
        let mut left = dense_index(host, qpn)
            .and_then(|(h, q)| self.waiting.get_mut(h)?.get_mut(q))
            .map_or(0, std::mem::take);
        if left == 0 {
            return;
        }
        let mut from = Bound::Included((host, 0, 0));
        let to = Bound::Included((host, u32::MAX, u64::MAX));
        while left > 0 {
            let Some((&key, o)) = self
                .open
                .range_mut((from, to))
                .find(|(_, o)| o.pending_waiters.contains(&qpn))
            else {
                break;
            };
            from = Bound::Excluded(key);
            let before = o.pending_waiters.len();
            o.pending_waiters.retain(|&q| q != qpn);
            left -= before - o.pending_waiters.len();
            o.last_waiter_done = Some(now);
            if let Some(span) = o.try_close() {
                self.open.remove(&key);
                self.closed.push(span);
            }
        }
    }

    fn finish(&mut self, host: u64, mr: u32, page: u64) {
        let done = self
            .open
            .get_mut(&(host, mr, page))
            .and_then(OpenSpan::try_close);
        if let Some(span) = done {
            self.open.remove(&(host, mr, page));
            self.closed.push(span);
        }
    }

    /// Spans that ran to completion, in close order (deterministic: the
    /// event engine is).
    pub fn closed(&self) -> &[FaultSpan] {
        &self.closed
    }

    /// Faults still mid-lifecycle.
    pub fn open_count(&self) -> usize {
        self.open.len()
    }

    /// Appends `other`'s closed spans to this store's closed list
    /// (sharded-run merge; follow with
    /// [`SpanStore::sort_closed_by_completion`] for a canonical order).
    pub fn absorb_closed(&mut self, other: &SpanStore) {
        self.closed.extend(other.closed.iter().cloned());
    }

    /// Re-sorts the closed spans into the canonical cross-shard order:
    /// completion time, then raise time, then identity. Close order is a
    /// per-engine artifact — two spans closing in the same nanosecond on
    /// different shards have no inherent order — so merged stores sort
    /// by content instead.
    pub fn sort_closed_by_completion(&mut self) {
        self.closed
            .sort_by_key(|s| (s.completed, s.raised, s.host, s.mr, s.page));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_us(us)
    }

    #[test]
    fn stage_durations_sum_to_end_to_end() {
        let mut s = SpanStore::default();
        s.fault_raised(0, 1, 3, t(10));
        s.service_begin(0, 1, 3, t(25));
        s.fault_resolved(0, 1, 3, t(500), &[7, 8, 9], 2);
        s.resume_done(0, 1, 3, t(525));
        s.resume_done(0, 1, 3, t(550));
        s.qp_completion(0, 7, t(560));
        s.qp_completion(0, 8, t(570));
        assert_eq!(s.closed().len(), 0, "span still draining");
        s.qp_completion(0, 9, t(600));
        assert_eq!(s.closed().len(), 1);
        let span = &s.closed()[0];
        let stages = span.stages().expect("closed span has stages");
        assert_eq!(stages[0], ("queue_wait", t(15)));
        assert_eq!(stages[1], ("resolution", t(475)));
        assert_eq!(stages[2], ("propagation", t(50)));
        assert_eq!(stages[3], ("retransmit_drain", t(50)));
        let total: SimTime = stages.iter().map(|&(_, d)| d).sum();
        assert_eq!(Some(total), span.end_to_end());
        assert_eq!(span.end_to_end(), Some(t(590)));
        assert_eq!(span.waiters, 3);
        assert_eq!(span.stale_qps, 2);
    }

    #[test]
    fn no_waiters_closes_at_resolution() {
        let mut s = SpanStore::default();
        s.fault_raised(2, 5, 0, t(0));
        s.service_begin(2, 5, 0, t(1));
        s.fault_resolved(2, 5, 0, t(300), &[], 0);
        assert_eq!(s.closed().len(), 1);
        let span = &s.closed()[0];
        assert_eq!(span.propagated, Some(t(300)));
        assert_eq!(span.completed, Some(t(300)));
        let stages = span.stages().expect("stages");
        assert_eq!(stages[2].1, SimTime::ZERO);
        assert_eq!(stages[3].1, SimTime::ZERO);
        assert_eq!(span.end_to_end(), Some(t(300)));
    }

    #[test]
    fn early_waiter_completion_clamps_to_propagation() {
        let mut s = SpanStore::default();
        s.fault_raised(0, 1, 0, t(0));
        s.service_begin(0, 1, 0, t(5));
        s.fault_resolved(0, 1, 0, t(100), &[4], 1);
        // The waiter finishes before the serialized resume does.
        s.qp_completion(0, 4, t(110));
        assert_eq!(s.closed().len(), 0);
        s.resume_done(0, 1, 0, t(150));
        assert_eq!(s.closed().len(), 1);
        let span = &s.closed()[0];
        assert_eq!(span.propagated, Some(t(150)));
        assert_eq!(span.completed, Some(t(150)), "clamped to propagation");
    }

    #[test]
    fn double_raise_is_coalesced() {
        let mut s = SpanStore::default();
        s.fault_raised(0, 1, 0, t(0));
        s.fault_raised(0, 1, 0, t(50));
        s.service_begin(0, 1, 0, t(60));
        s.fault_resolved(0, 1, 0, t(70), &[], 0);
        assert_eq!(s.closed().len(), 1);
        assert_eq!(s.closed()[0].raised, t(0));
    }

    #[test]
    fn completion_for_unrelated_qp_is_ignored() {
        let mut s = SpanStore::default();
        s.fault_raised(0, 1, 0, t(0));
        s.fault_resolved(0, 1, 0, t(10), &[3], 0);
        s.qp_completion(0, 99, t(20));
        s.qp_completion(1, 3, t(20)); // right QP, wrong host
        assert_eq!(s.closed().len(), 0);
        assert_eq!(s.open_count(), 1);
        s.qp_completion(0, 3, t(30));
        assert_eq!(s.closed().len(), 1);
    }

    #[test]
    fn one_completion_closes_every_span_waiting_on_it_in_key_order() {
        let mut s = SpanStore::default();
        // Raised in the reverse of key order, on two hosts.
        for (mr, page) in [(2, 0), (1, 9), (1, 4)] {
            s.fault_raised(0, mr, page, t(0));
            s.fault_resolved(0, mr, page, t(10), &[7, 7, 8], 0);
        }
        s.fault_raised(1, 1, 0, t(0));
        s.fault_resolved(1, 1, 0, t(10), &[7], 0);
        s.qp_completion(0, 8, t(20));
        assert_eq!(s.closed().len(), 0);
        s.qp_completion(0, 7, t(30));
        let closed: Vec<(u32, u64)> = s.closed().iter().map(|c| (c.mr, c.page)).collect();
        assert_eq!(closed, [(1, 4), (1, 9), (2, 0)]);
        assert!(s.closed().iter().all(|c| c.completed == Some(t(30))));
        // The other host's span still waits on its own QP 7.
        assert_eq!(s.open_count(), 1);
        s.qp_completion(0, 7, t(40));
        assert_eq!(s.open_count(), 1);
        s.qp_completion(1, 7, t(50));
        assert_eq!((s.open_count(), s.closed().len()), (0, 4));
        assert!(
            s.waiting.iter().flatten().all(|&n| n == 0),
            "{:?}",
            s.waiting
        );
    }

    #[test]
    fn completions_check_off_one_qpn_on_two_hosts_apart() {
        let mut s = SpanStore::default();
        s.fault_raised(0, 1, 0, t(0));
        s.fault_resolved(0, 1, 0, t(10), &[7], 0);
        s.fault_raised(3, 1, 0, t(0));
        s.fault_resolved(3, 1, 0, t(10), &[7, 2], 0);
        assert_eq!(
            (s.waiting[0][7], s.waiting[3][7], s.waiting[3][2]),
            (1, 1, 1)
        );
        s.qp_completion(3, 7, t(20));
        assert_eq!(
            (s.open_count(), s.waiting[0][7], s.waiting[3][7]),
            (2, 1, 0)
        );
        s.qp_completion(0, 7, t(30));
        assert_eq!(s.closed().len(), 1);
        assert_eq!(
            (s.closed()[0].host, s.closed()[0].completed),
            (0, Some(t(30)))
        );
        s.qp_completion(3, 2, t(40));
        let closed: Vec<(u64, Option<SimTime>)> =
            s.closed().iter().map(|c| (c.host, c.completed)).collect();
        assert_eq!(closed, [(0, Some(t(30))), (3, Some(t(40)))]);
        assert!(
            s.waiting.iter().flatten().all(|&n| n == 0),
            "{:?}",
            s.waiting
        );
    }

    #[test]
    fn a_completion_nobody_waits_on_grows_no_table() {
        let mut s = SpanStore::default();
        for (host, qpn) in [(0, 1), (5, 9), (u64::MAX, u32::MAX)] {
            s.qp_completion(host, qpn, t(1));
        }
        // A span with no waiters, and one whose only waiter lies past the
        // id space: both drain at resolution.
        s.fault_raised(2, 1, 0, t(0));
        s.fault_resolved(2, 1, 0, t(10), &[], 0);
        s.fault_raised(2, 1, 1, t(0));
        s.fault_resolved(2, 1, 1, t(10), &[u32::MAX], 0);
        s.qp_completion(2, 1, t(20));
        s.qp_completion(2, u32::MAX, t(20));
        assert!(s.waiting.is_empty(), "{:?}", s.waiting);
        assert_eq!((s.open_count(), s.closed().len()), (0, 2));
        assert_eq!(s.closed()[1].waiters, 1);
        assert_eq!(s.closed()[1].completed, Some(t(10)));
    }
}
