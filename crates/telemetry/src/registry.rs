//! The metric registry: counters, gauges and log-scaled histograms keyed
//! by a static metric name plus optional `(host, qpn)` labels.
//!
//! The registry is a table of metric *families*: an ordered map from the
//! name to an ordered map from the labels to the instrument. A write pays
//! one lookup among the few dozen names and then one search on integer
//! labels, instead of comparing name strings at every node of one big
//! map. Walking names and then labels is `(name, labels)` order, so
//! iteration (and therefore every exporter) visits metrics in the same
//! order on every run with the same workload, and all values are
//! integers (nanoseconds for durations) so no formatting ambiguity can
//! creep in.
//!
//! A family is a B-tree rather than a sorted vector because run-time
//! first inserts (`timer.*`, `cq.completions`) arrive in event order, not
//! label order. End-of-run snapshots arrive whole and sorted instead:
//! [`Registry::set_gauges`] builds a new family from them in one pass.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// Optional `(host, qpn)` labels attached to a metric sample.
///
/// A metric family (one static name) may carry samples at different
/// label granularities: cluster-wide (`Labels::NONE`), per host
/// ([`Labels::host`]) or per QP ([`Labels::host_qp`]). The label set is
/// deliberately closed — free-form string labels would invite
/// non-determinism and allocation on the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default, Hash)]
pub struct Labels {
    /// Owning host id, if the sample is host-scoped.
    pub host: Option<u64>,
    /// Queue pair number, if the sample is QP-scoped.
    pub qpn: Option<u32>,
}

impl Labels {
    /// No labels: a cluster-wide sample.
    pub const NONE: Labels = Labels {
        host: None,
        qpn: None,
    };

    /// A host-scoped sample.
    pub fn host(host: u64) -> Self {
        Labels {
            host: Some(host),
            qpn: None,
        }
    }

    /// A QP-scoped sample.
    pub fn host_qp(host: u64, qpn: u32) -> Self {
        Labels {
            host: Some(host),
            qpn: Some(qpn),
        }
    }
}

/// Number of log2 buckets a [`Histogram`] carries: one per possible
/// leading-bit position of a `u64` nanosecond value.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A log2-bucketed histogram of `u64` samples (nanoseconds by
/// convention).
///
/// Bucket `i` counts samples whose value `v` satisfies
/// `floor(log2(v)) == i` (zero falls into bucket 0), i.e. bucket `i`
/// spans `[2^i, 2^(i+1))`. Log scale matches the phenomena under study:
/// fault latencies range from microseconds (mapped page) to half a
/// second (damming stall), and a linear histogram cannot hold both.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// Records one sample.
    pub fn observe(&mut self, v: u64) {
        let bucket = if v == 0 { 0 } else { 63 - v.leading_zeros() } as usize;
        self.buckets[bucket] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Integer mean of the samples, or 0 if empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Iterates the non-empty buckets as `(bucket_floor, count)` where
    /// `bucket_floor = 2^i` is the lower bound of bucket `i` (1 for the
    /// zero bucket).
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(i, &c)| (1u64 << i, c))
    }

    /// Folds `other`'s samples into `self`. The result is identical to
    /// having observed both sample streams into one histogram, in any
    /// order — histograms are commutative, which is what lets sharded
    /// runs merge per-shard hubs without replaying sample order.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        // `min` uses u64::MAX as the empty sentinel, so a plain min is
        // correct even when either side is empty.
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// One registered instrument: two words. Nearly every instrument is a
/// scalar, so the 64 buckets of the rare histogram live behind a box
/// instead of padding each counter to their size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Instrument {
    /// A monotonically increasing count.
    Counter(u64),
    /// A last-write-wins absolute value (synced snapshots land here).
    Gauge(u64),
    /// A log2-bucketed distribution.
    Histogram(Box<Histogram>),
}

impl Instrument {
    fn empty_histogram() -> Instrument {
        Instrument::Histogram(Box::default())
    }

    /// An instrument of the same kind holding nothing yet.
    fn empty_like(&self) -> Instrument {
        match self {
            Instrument::Counter(_) => Instrument::Counter(0),
            Instrument::Gauge(_) => Instrument::Gauge(0),
            Instrument::Histogram(_) => Instrument::empty_histogram(),
        }
    }

    /// The instrument kind as a static lowercase string (exporter use).
    pub fn kind(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
        }
    }
}

/// One metric family: every labelled instrument under one name.
type Family = BTreeMap<Labels, Instrument>;

/// The instrument at `labels` in `family`, inserting `default()` (and
/// counting it in `len`) if absent.
fn family_slot<'a>(
    family: &'a mut Family,
    len: &mut usize,
    labels: Labels,
    default: impl FnOnce() -> Instrument,
) -> &'a mut Instrument {
    match family.entry(labels) {
        Entry::Occupied(e) => e.into_mut(),
        Entry::Vacant(e) => {
            *len += 1;
            e.insert(default())
        }
    }
}

/// The metric registry: `name → labels → instrument`.
///
/// Names are `&'static str` by design — the metric namespace is closed
/// and compiled in, which keeps recording allocation-free and makes the
/// export order a compile-time property. No family is ever empty: the
/// last [`Registry::remove`] from a family drops it.
#[derive(Debug, Default)]
pub struct Registry {
    families: BTreeMap<&'static str, Family>,
    /// Instruments across every family.
    len: usize,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The instrument at `(name, labels)`, inserting `default()` if absent.
    fn slot(
        &mut self,
        name: &'static str,
        labels: Labels,
        default: impl FnOnce() -> Instrument,
    ) -> &mut Instrument {
        let family = self.families.entry(name).or_default();
        family_slot(family, &mut self.len, labels, default)
    }

    /// Adds `delta` to the counter `(name, labels)`, creating it at zero.
    ///
    /// Silently ignored if the slot already holds a different instrument
    /// kind (a programming error surfaced by the slot keeping its value).
    pub fn counter_add(&mut self, name: &'static str, labels: Labels, delta: u64) {
        if let Instrument::Counter(v) = self.slot(name, labels, || Instrument::Counter(0)) {
            *v += delta;
        }
    }

    /// Sets the gauge `(name, labels)` to `v`: the one-row case of
    /// [`Registry::set_gauges`].
    pub fn gauge_set(&mut self, name: &'static str, labels: Labels, v: u64) {
        self.set_gauges(name, [(labels, v)]);
    }

    /// Sets the gauges of family `name` from `(labels, value)` rows, with
    /// the effect of one [`Registry::gauge_set`] per row in turn.
    ///
    /// A family that does not exist yet is built whole: rows in ascending
    /// label order (the order a sync walks hosts and QPs in) fill the
    /// B-tree's nodes in one pass. Rows in any other order cost a sort
    /// and stay correct. An existing family is updated row by row.
    pub fn set_gauges(
        &mut self,
        name: &'static str,
        rows: impl IntoIterator<Item = (Labels, u64)>,
    ) {
        match self.families.entry(name) {
            Entry::Vacant(e) => {
                let family: Family = rows
                    .into_iter()
                    .map(|(labels, v)| (labels, Instrument::Gauge(v)))
                    .collect();
                if !family.is_empty() {
                    self.len += family.len();
                    e.insert(family);
                }
            }
            Entry::Occupied(e) => {
                let family = e.into_mut();
                for (labels, v) in rows {
                    let slot = family_slot(family, &mut self.len, labels, || Instrument::Gauge(0));
                    if let Instrument::Gauge(g) = slot {
                        *g = v;
                    }
                }
            }
        }
    }

    /// Records `v` into the histogram `(name, labels)`.
    pub fn observe(&mut self, name: &'static str, labels: Labels, v: u64) {
        if let Instrument::Histogram(h) = self.slot(name, labels, Instrument::empty_histogram) {
            h.observe(v);
        }
    }

    /// Looks up one instrument.
    pub fn get(&self, name: &'static str, labels: Labels) -> Option<&Instrument> {
        self.families.get(name)?.get(&labels)
    }

    /// The value of a counter, or `None` if absent / not a counter.
    pub fn counter(&self, name: &'static str, labels: Labels) -> Option<u64> {
        match self.get(name, labels) {
            Some(Instrument::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// The value of a gauge, or `None` if absent / not a gauge.
    pub fn gauge(&self, name: &'static str, labels: Labels) -> Option<u64> {
        match self.get(name, labels) {
            Some(Instrument::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// The histogram at a slot, or `None` if absent / not a histogram.
    pub fn histogram(&self, name: &'static str, labels: Labels) -> Option<&Histogram> {
        match self.get(name, labels) {
            Some(Instrument::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Number of registered `(name, labels)` slots.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates every instrument in deterministic (name, labels) order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, Labels, &Instrument)> + '_ {
        self.families.iter().flat_map(|(&name, family)| {
            family
                .iter()
                .map(move |(&labels, inst)| (name, labels, inst))
        })
    }

    /// Folds every instrument of `other` into `self`: counters add,
    /// histograms merge bucket-wise, and gauges **add** too — a sharded
    /// merge sums per-shard snapshots of disjoint state (each host's
    /// gauges are written by exactly one shard), and cluster-wide gauges
    /// that do not sum (queue depths) are recomputed by the caller after
    /// absorbing. A family `self` lacks is copied whole.
    pub fn absorb(&mut self, other: &Registry) {
        for (&name, theirs) in &other.families {
            let Some(mine) = self.families.get_mut(name) else {
                self.len += theirs.len();
                self.families.insert(name, theirs.clone());
                continue;
            };
            for (&labels, inst) in theirs {
                match (
                    family_slot(mine, &mut self.len, labels, || inst.empty_like()),
                    inst,
                ) {
                    (Instrument::Counter(a), Instrument::Counter(b))
                    | (Instrument::Gauge(a), Instrument::Gauge(b)) => *a += b,
                    (Instrument::Histogram(a), Instrument::Histogram(b)) => a.merge(b),
                    _ => {}
                }
            }
        }
    }

    /// Removes one instrument; returns whether it existed.
    pub fn remove(&mut self, name: &'static str, labels: Labels) -> bool {
        let Some(family) = self.families.get_mut(name) else {
            return false;
        };
        let removed = family.remove(&labels).is_some();
        if family.is_empty() {
            self.families.remove(name);
        }
        self.len -= usize::from(removed);
        removed
    }
}

#[cfg(test)]
mod tests {
    use ibsim_event::SplitMix64;

    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut r = Registry::new();
        r.counter_add("pkt", Labels::NONE, 3);
        r.counter_add("pkt", Labels::NONE, 4);
        r.counter_add("pkt", Labels::host(1), 1);
        assert_eq!(r.counter("pkt", Labels::NONE), Some(7));
        assert_eq!(r.counter("pkt", Labels::host(1)), Some(1));
        assert_eq!(r.counter("pkt", Labels::host(2)), None);
    }

    #[test]
    fn gauges_overwrite() {
        let mut r = Registry::new();
        r.gauge_set("depth", Labels::NONE, 10);
        r.gauge_set("depth", Labels::NONE, 4);
        assert_eq!(r.gauge("depth", Labels::NONE), Some(4));
    }

    #[test]
    fn remove_drops_one_key_and_keeps_the_rest() {
        let mut r = Registry::new();
        r.counter_add("gone", Labels::NONE, 9);
        r.counter_add("keep", Labels::NONE, 4);
        assert!(r.remove("gone", Labels::NONE));
        assert!(!r.remove("gone", Labels::NONE));
        assert_eq!(r.counter("gone", Labels::NONE), None);
        assert_eq!(r.counter("keep", Labels::NONE), Some(4));
        // No trace: the emptied family went with its last slot.
        assert_eq!(r.len(), 1);
        let left: Vec<_> = r.iter().collect();
        assert_eq!(left, [("keep", Labels::NONE, &Instrument::Counter(4))]);
        // And the key is free again, for any kind.
        r.gauge_set("gone", Labels::NONE, 2);
        assert_eq!(r.gauge("gone", Labels::NONE), Some(2));
    }

    #[test]
    fn absorbing_into_an_empty_registry_copies_the_source() {
        let mut src = Registry::new();
        for v in [0, 3, 250_000, 900_000, u64::MAX] {
            src.observe("lat", Labels::host(1), v);
        }
        src.counter_add("pkt", Labels::NONE, 7);
        src.gauge_set("depth", Labels::host_qp(1, 2), 5);
        let mut dst = Registry::new();
        dst.absorb(&src);
        assert_eq!(dst.len(), 3);
        assert!(dst.iter().eq(src.iter()));
        assert_eq!(
            dst.histogram("lat", Labels::host(1)),
            src.histogram("lat", Labels::host(1))
        );
        // A second absorb doubles counts but not extrema.
        dst.absorb(&src);
        let h = dst.histogram("lat", Labels::host(1)).expect("absorbed");
        assert_eq!((h.count(), h.min(), h.max()), (10, 0, u64::MAX));
    }

    #[test]
    fn kind_mismatch_is_ignored() {
        let mut r = Registry::new();
        r.counter_add("x", Labels::NONE, 5);
        r.gauge_set("x", Labels::NONE, 99);
        r.observe("x", Labels::NONE, 99);
        assert_eq!(r.counter("x", Labels::NONE), Some(5));
        assert_eq!(r.gauge("x", Labels::NONE), None);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let mut h = Histogram::default();
        h.observe(0); // bucket 0
        h.observe(1); // bucket 0
        h.observe(2); // bucket 1
        h.observe(3); // bucket 1
        h.observe(1024); // bucket 10
        let buckets: Vec<(u64, u64)> = h.nonzero_buckets().collect();
        assert_eq!(buckets, vec![(1, 2), (2, 2), (1024, 1)]);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1030);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1024);
        assert_eq!(h.mean(), 206);
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = Histogram::default();
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn iteration_order_is_sorted() {
        let mut r = Registry::new();
        r.counter_add("zz", Labels::NONE, 1);
        r.counter_add("aa", Labels::host(2), 1);
        r.counter_add("aa", Labels::host(1), 1);
        r.counter_add("aa", Labels::NONE, 1);
        let names: Vec<(&str, Labels)> = r.iter().map(|(n, l, _)| (n, l)).collect();
        assert_eq!(
            names,
            vec![
                ("aa", Labels::NONE),
                ("aa", Labels::host(1)),
                ("aa", Labels::host(2)),
                ("zz", Labels::NONE),
            ]
        );
    }

    /// The single-map registry the family table replaced: one `BTreeMap`
    /// keyed by `(name, labels)`. Kept as the reference the table is
    /// replayed against.
    mod reference {
        use std::collections::BTreeMap;

        use super::super::{Histogram, Instrument, Labels};

        #[derive(Debug, Default)]
        pub struct Registry {
            instruments: BTreeMap<(&'static str, Labels), Instrument>,
        }

        impl Registry {
            fn slot(
                &mut self,
                name: &'static str,
                labels: Labels,
                default: impl FnOnce() -> Instrument,
            ) -> &mut Instrument {
                self.instruments
                    .entry((name, labels))
                    .or_insert_with(default)
            }

            pub fn counter_add(&mut self, name: &'static str, labels: Labels, delta: u64) {
                if let Instrument::Counter(v) = self.slot(name, labels, || Instrument::Counter(0)) {
                    *v += delta;
                }
            }

            pub fn gauge_set(&mut self, name: &'static str, labels: Labels, v: u64) {
                if let Instrument::Gauge(g) = self.slot(name, labels, || Instrument::Gauge(0)) {
                    *g = v;
                }
            }

            pub fn observe(&mut self, name: &'static str, labels: Labels, v: u64) {
                if let Instrument::Histogram(h) =
                    self.slot(name, labels, Instrument::empty_histogram)
                {
                    h.observe(v);
                }
            }

            pub fn get(&self, name: &'static str, labels: Labels) -> Option<&Instrument> {
                self.instruments.get(&(name, labels))
            }

            pub fn counter(&self, name: &'static str, labels: Labels) -> Option<u64> {
                match self.get(name, labels) {
                    Some(Instrument::Counter(v)) => Some(*v),
                    _ => None,
                }
            }

            pub fn gauge(&self, name: &'static str, labels: Labels) -> Option<u64> {
                match self.get(name, labels) {
                    Some(Instrument::Gauge(v)) => Some(*v),
                    _ => None,
                }
            }

            pub fn histogram(&self, name: &'static str, labels: Labels) -> Option<&Histogram> {
                match self.get(name, labels) {
                    Some(Instrument::Histogram(h)) => Some(h),
                    _ => None,
                }
            }

            pub fn len(&self) -> usize {
                self.instruments.len()
            }

            pub fn iter(&self) -> impl Iterator<Item = (&'static str, Labels, &Instrument)> + '_ {
                self.instruments.iter().map(|(&(n, l), inst)| (n, l, inst))
            }

            pub fn absorb(&mut self, other: &Registry) {
                for (name, labels, inst) in other.iter() {
                    match inst {
                        Instrument::Counter(v) => self.counter_add(name, labels, *v),
                        Instrument::Gauge(v) => {
                            if let Instrument::Gauge(g) =
                                self.slot(name, labels, || Instrument::Gauge(0))
                            {
                                *g += v;
                            }
                        }
                        Instrument::Histogram(h) => {
                            if let Instrument::Histogram(mine) =
                                self.slot(name, labels, Instrument::empty_histogram)
                            {
                                mine.merge(h);
                            }
                        }
                    }
                }
            }

            pub fn remove(&mut self, name: &'static str, labels: Labels) -> bool {
                self.instruments.remove(&(name, labels)).is_some()
            }
        }
    }

    /// Twenty names in no particular order, so families sort apart from
    /// insertion order.
    const NAMES: [&str; 20] = [
        "qp.timeouts",
        "cq.completions",
        "timer.ack_fired",
        "packets.total",
        "cq.wr_latency_ns",
        "qp.retransmissions",
        "event.live",
        "fabric.link.frames",
        "fault.raised",
        "qp.dwell_rts_ns",
        "driver.qp_resumes",
        "packets.ack",
        "fabric.tx_frames",
        "event.peak_depth",
        "qp.dwell_init_ns",
        "timer.rnr_fired",
        "fault.drawn_latency_ns",
        "cluster.total_packets",
        "qp.faults_raised",
        "a",
    ];

    /// Every label shape: none, host, host + QP, and QP without a host.
    fn label_universe() -> Vec<Labels> {
        let mut all = vec![Labels::NONE];
        for host in 0..2 {
            all.push(Labels::host(host));
            all.extend((0..3).map(|qpn| Labels::host_qp(host, qpn)));
        }
        all.extend((0..2).map(|qpn| Labels {
            host: None,
            qpn: Some(qpn),
        }));
        all
    }

    #[derive(Debug, Clone)]
    enum Op {
        Add(&'static str, Labels, u64),
        Set(&'static str, Labels, u64),
        SetMany(&'static str, Vec<(Labels, u64)>),
        Observe(&'static str, Labels, u64),
        Remove(&'static str, Labels),
        /// Absorb a registry built by these ops.
        Absorb(Vec<Op>),
    }

    fn random_op(rng: &mut SplitMix64, labels: &[Labels], nested: bool) -> Op {
        let name = NAMES[rng.next_below(NAMES.len() as u64) as usize];
        let pick = |rng: &mut SplitMix64| labels[rng.next_below(labels.len() as u64) as usize];
        let label = pick(rng);
        match rng.next_below(if nested { 10 } else { 9 }) {
            0 | 1 => Op::Add(name, label, rng.next_below(1_000)),
            2 => Op::Set(name, label, rng.next_below(1 << 40)),
            3 | 4 => {
                let mut rows: Vec<(Labels, u64)> = (0..rng.next_below(12))
                    .map(|_| (pick(rng), rng.next_below(1 << 40)))
                    .collect();
                // Mostly the ascending order a sync writes in; sometimes
                // not, and sometimes with a label twice.
                if rng.next_below(4) != 0 {
                    rows.sort_by_key(|&(l, _)| l);
                }
                Op::SetMany(name, rows)
            }
            5 | 6 => {
                let v = match rng.next_below(4) {
                    0 => 0,
                    1 => u64::MAX,
                    _ => rng.next_below(1 << 30),
                };
                Op::Observe(name, label, v)
            }
            7 | 8 => Op::Remove(name, label),
            _ => Op::Absorb(
                (0..rng.next_below(8))
                    .map(|_| random_op(rng, labels, false))
                    .collect(),
            ),
        }
    }

    fn apply(op: &Op, table: &mut Registry, reference: &mut reference::Registry) {
        match op {
            Op::Add(n, l, v) => {
                table.counter_add(n, *l, *v);
                reference.counter_add(n, *l, *v);
            }
            Op::Set(n, l, v) => {
                table.gauge_set(n, *l, *v);
                reference.gauge_set(n, *l, *v);
            }
            Op::SetMany(n, rows) => {
                table.set_gauges(n, rows.iter().copied());
                for &(l, v) in rows {
                    reference.gauge_set(n, l, v);
                }
            }
            Op::Observe(n, l, v) => {
                table.observe(n, *l, *v);
                reference.observe(n, *l, *v);
            }
            Op::Remove(n, l) => {
                assert_eq!(table.remove(n, *l), reference.remove(n, *l), "{op:?}");
            }
            Op::Absorb(ops) => {
                let (mut src, mut src_ref) = (Registry::new(), reference::Registry::default());
                for op in ops {
                    apply(op, &mut src, &mut src_ref);
                }
                table.absorb(&src);
                reference.absorb(&src_ref);
            }
        }
    }

    #[test]
    fn the_family_table_replays_the_single_map_registry() {
        let labels = label_universe();
        for seed in 0..4 {
            let mut rng = SplitMix64::new(seed);
            let (mut table, mut reference) = (Registry::new(), reference::Registry::default());
            for step in 0..600 {
                let op = random_op(&mut rng, &labels, true);
                apply(&op, &mut table, &mut reference);
                let at = format!("seed {seed} step {step}: {op:?}");
                assert_eq!(table.len(), reference.len(), "{at}");
                assert_eq!(table.is_empty(), reference.len() == 0, "{at}");
                assert!(table.iter().eq(reference.iter()), "{at}");
                for name in NAMES {
                    for &l in &labels {
                        assert_eq!(table.get(name, l), reference.get(name, l), "{at}");
                        assert_eq!(table.counter(name, l), reference.counter(name, l), "{at}");
                        assert_eq!(table.gauge(name, l), reference.gauge(name, l), "{at}");
                        assert_eq!(
                            table.histogram(name, l),
                            reference.histogram(name, l),
                            "{at}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn set_gauges_builds_a_new_family_and_updates_an_old_one() {
        let mut r = Registry::new();
        r.set_gauges(
            "q",
            (0..4).map(|q| (Labels::host_qp(0, q), u64::from(q) * 10)),
        );
        assert_eq!(r.len(), 4);
        assert_eq!(r.gauge("q", Labels::host_qp(0, 3)), Some(30));
        // An empty snapshot registers nothing.
        r.set_gauges("empty", []);
        assert_eq!(r.len(), 4);
        assert!(r.iter().all(|(n, _, _)| n == "q"));
        // A second sync updates rows in place and adds the new ones; a
        // slot of another kind keeps its value.
        r.counter_add("q", Labels::host(9), 1);
        r.set_gauges(
            "q",
            [
                (Labels::host_qp(0, 3), 7),
                (Labels::host_qp(1, 0), 8),
                (Labels::host(9), 5),
            ],
        );
        assert_eq!(r.len(), 6);
        assert_eq!(r.gauge("q", Labels::host_qp(0, 3)), Some(7));
        assert_eq!(r.gauge("q", Labels::host_qp(1, 0)), Some(8));
        assert_eq!(r.counter("q", Labels::host(9)), Some(1));
    }
}
