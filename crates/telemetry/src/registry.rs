//! The metric registry: counters, gauges and log-scaled histograms keyed
//! by a static metric name plus optional `(host, qpn)` labels.
//!
//! Everything here is deterministic by construction: keys live in a
//! [`BTreeMap`], so iteration (and therefore every exporter) visits
//! metrics in the same order on every run with the same workload, and
//! all values are integers (nanoseconds for durations) so no formatting
//! ambiguity can creep in.

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

    /// The instrument kind as a static lowercase string (exporter use).
    pub fn kind(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
        }
    }
}

/// The metric registry: `(name, labels) → instrument`.
///
/// Names are `&'static str` by design — the metric namespace is closed
/// and compiled in, which keeps recording allocation-free and makes the
/// export order a compile-time property.
#[derive(Debug, Default)]
pub struct Registry {
    instruments: BTreeMap<(&'static str, Labels), Instrument>,
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
        self.instruments
            .entry((name, labels))
            .or_insert_with(default)
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

    /// Sets the gauge `(name, labels)` to `v`.
    pub fn gauge_set(&mut self, name: &'static str, labels: Labels, v: u64) {
        if let Instrument::Gauge(g) = self.slot(name, labels, || Instrument::Gauge(0)) {
            *g = v;
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
        self.instruments.get(&(name, labels))
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
        self.instruments.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.instruments.is_empty()
    }

    /// Iterates every instrument in deterministic (name, labels) order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, Labels, &Instrument)> + '_ {
        self.instruments.iter().map(|(&(n, l), inst)| (n, l, inst))
    }

    /// Folds every instrument of `other` into `self`: counters add,
    /// histograms merge bucket-wise, and gauges **add** too — a sharded
    /// merge sums per-shard snapshots of disjoint state (each host's
    /// gauges are written by exactly one shard), and cluster-wide gauges
    /// that do not sum (queue depths) are recomputed by the caller after
    /// absorbing.
    pub fn absorb(&mut self, other: &Registry) {
        for (name, labels, inst) in other.iter() {
            match inst {
                Instrument::Counter(v) => self.counter_add(name, labels, *v),
                Instrument::Gauge(v) => {
                    if let Instrument::Gauge(g) = self.slot(name, labels, || Instrument::Gauge(0)) {
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

    /// Removes one instrument; returns whether it existed.
    pub fn remove(&mut self, name: &'static str, labels: Labels) -> bool {
        self.instruments.remove(&(name, labels)).is_some()
    }
}

#[cfg(test)]
mod tests {
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
        // No trace: the map is the registry, there is no slot to orphan.
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
}
