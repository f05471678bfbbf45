//! The metric registry: counters, gauges and log-scaled histograms keyed
//! by a static metric name plus optional `(host, qpn)` labels.
//!
//! The registry is a table of metric *families*: an ordered map from the
//! name to a dense table of instruments. A family's first row holds one
//! slot, [`Labels::NONE`]'s, then comes one row per host, indexed by host
//! id: column 0 is the host-only instrument and column `qpn + 1` the
//! QP's. The verbs
//! crate hands hosts out from 0 and QPNs from 1 on each host (and the
//! fabric numbers switches from 0, which the inter-link gauges write as
//! `(src switch, dst switch)`), so a write is one lookup among the few
//! dozen names and then two indexes.
//!
//! Walking a family in index order *is* `Labels`' derived order: `NONE`,
//! then each host's host-only slot before its QPs in ascending QPN. So
//! iteration (and therefore every exporter) visits metrics in
//! `(name, labels)` order however the run-time first inserts
//! (`timer.*`, `cq.completions`) arrived, and all
//! values are integers (nanoseconds for durations) so no formatting
//! ambiguity can creep in. An instrument, once registered, stays: no
//! family is ever empty.
//!
//! The tables trust that ids are small, as the clock table in
//! [`crate::Telemetry`] does. Some labels have no slot: an id past the
//! InfiniBand id space (a host past the 16-bit LID range, a QPN past 24
//! bits), and a QPN without a host, which no layer writes. A write to
//! one is ignored, as a write to a slot of another kind is, and never
//! grows a table or creates a family.

use std::collections::BTreeMap;

/// Host ids a dense table indexes: one per 16-bit LID.
const HOST_LIMIT: u64 = 1 << 16;
/// QPNs a dense table indexes: the 24-bit QPN space.
const QPN_LIMIT: u32 = 1 << 24;

/// The dense `(host, qpn)` index of an id pair, or `None` if either id
/// lies past the InfiniBand id space.
pub(crate) fn dense_index(host: u64, qpn: u32) -> Option<(usize, usize)> {
    (host < HOST_LIMIT && qpn < QPN_LIMIT).then_some((host as usize, qpn as usize))
}

/// The cell of `(host, qpn)` in a dense `[host][qpn]` table, growing the
/// table to reach it; `None` past the id space, which no table grows to.
pub(crate) fn dense_cell<T: Default>(
    table: &mut Vec<Vec<T>>,
    host: u64,
    qpn: u32,
) -> Option<&mut T> {
    let (h, q) = dense_index(host, qpn)?;
    Some(grow_to(table, h, q))
}

/// `table[h][c]`, growing the table with defaults to reach it.
fn grow_to<T: Default>(table: &mut Vec<Vec<T>>, h: usize, c: usize) -> &mut T {
    if table.len() <= h {
        table.resize_with(h + 1, Vec::new);
    }
    let row = &mut table[h];
    if row.len() <= c {
        row.resize_with(c + 1, T::default);
    }
    &mut row[c]
}

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

/// Every labelled instrument under one name, `[row][column]` at its
/// [`index`].
type Family = Vec<Vec<Option<Instrument>>>;

/// Where `labels` sits in a family, as `[row][column]`: row 0 holds only
/// [`Labels::NONE`], at column 0; row `host + 1` holds the host-only slot
/// at column 0 and QP `qpn` at column `qpn + 1`. So index order is label
/// order. `None` for a label with no slot (see the module docs).
fn index(labels: Labels) -> Option<(usize, usize)> {
    match (labels.host, labels.qpn) {
        (Some(host), qpn) => {
            let (h, q) = dense_index(host, qpn.unwrap_or(0))?;
            Some((h + 1, qpn.map_or(0, |_| q + 1)))
        }
        (None, None) => Some((0, 0)),
        (None, Some(_)) => None,
    }
}

/// The metric registry: `name → labels → instrument`.
///
/// Names are `&'static str` by design — the metric namespace is closed
/// and compiled in, which keeps recording allocation-free and makes the
/// export order a compile-time property.
#[derive(Debug, Default)]
pub struct Registry {
    families: BTreeMap<&'static str, Family>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The instrument at `(name, labels)`, inserting `default()` if absent.
    /// A write that lands nowhere creates no family.
    fn slot(
        &mut self,
        name: &'static str,
        labels: Labels,
        default: impl FnOnce() -> Instrument,
    ) -> Option<&mut Instrument> {
        let (r, c) = index(labels)?;
        let family = self.families.entry(name).or_default();
        Some(grow_to(family, r, c).get_or_insert_with(default))
    }

    /// Adds `delta` to the counter `(name, labels)`, creating it at zero.
    ///
    /// Silently ignored if the slot already holds a different instrument
    /// kind (a programming error surfaced by the slot keeping its value).
    pub fn counter_add(&mut self, name: &'static str, labels: Labels, delta: u64) {
        if let Some(Instrument::Counter(v)) = self.slot(name, labels, || Instrument::Counter(0)) {
            *v += delta;
        }
    }

    /// Sets the gauge `(name, labels)` to `v`: the one-row case of
    /// [`Registry::set_gauges`].
    pub(crate) fn gauge_set(&mut self, name: &'static str, labels: Labels, v: u64) {
        self.set_gauges(name, [(labels, v)]);
    }

    /// Sets the gauges of family `name` from `(labels, value)` rows, with
    /// the effect of one gauge write per row in turn: the family is
    /// looked up once, and each row is one indexed write.
    pub fn set_gauges(
        &mut self,
        name: &'static str,
        rows: impl IntoIterator<Item = (Labels, u64)>,
    ) {
        let mut cells = rows
            .into_iter()
            .filter_map(|(labels, v)| Some((index(labels)?, v)))
            .peekable();
        if cells.peek().is_none() {
            return;
        }
        let family = self.families.entry(name).or_default();
        for ((r, c), v) in cells {
            if let Instrument::Gauge(g) = grow_to(family, r, c).get_or_insert(Instrument::Gauge(0))
            {
                *g = v;
            }
        }
    }

    /// Records `v` into the histogram `(name, labels)`.
    pub fn observe(&mut self, name: &'static str, labels: Labels, v: u64) {
        if let Some(Instrument::Histogram(h)) = self.slot(name, labels, Instrument::empty_histogram)
        {
            h.observe(v);
        }
    }

    /// Looks up one instrument.
    pub fn get(&self, name: &'static str, labels: Labels) -> Option<&Instrument> {
        let (r, c) = index(labels)?;
        self.families.get(name)?.get(r)?.get(c)?.as_ref()
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

    /// Number of registered `(name, labels)` slots: a walk of every
    /// family.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.families.is_empty()
    }

    /// Iterates every instrument in deterministic (name, labels) order:
    /// each family in index order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, Labels, &Instrument)> + '_ {
        self.families.iter().flat_map(|(&name, family)| {
            family.iter().enumerate().flat_map(move |(r, row)| {
                row.iter().enumerate().filter_map(move |(c, inst)| {
                    let labels = Labels {
                        host: r.checked_sub(1).map(|h| h as u64),
                        qpn: c.checked_sub(1).map(|q| q as u32),
                    };
                    Some((name, labels, inst.as_ref()?))
                })
            })
        })
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

    /// Every label shape the registry must order: none; hosts with gaps
    /// between their ids, each host-only and with QPNs that leave gaps
    /// (0, the first QPN a verbs host hands out, and two far ones); and
    /// switch pairs written as `(src, dst)` in both directions. The
    /// second list adds a host that only appears late, past every
    /// earlier row, and one between them.
    fn label_universes() -> (Vec<Labels>, Vec<Labels>) {
        let mut early = vec![Labels::NONE];
        for host in [0, 1, 4] {
            early.push(Labels::host(host));
            early.extend([0, 1, 5, 40].map(|qpn| Labels::host_qp(host, qpn)));
        }
        early.extend([(2, 0), (0, 2), (6, 3)].map(|(src, dst)| Labels::host_qp(src, dst)));
        let mut all = early.clone();
        for host in [9, 3] {
            all.push(Labels::host(host));
            all.extend([2, 7].map(|qpn| Labels::host_qp(host, qpn)));
        }
        (early, all)
    }

    #[derive(Debug, Clone)]
    enum Op {
        Add(&'static str, Labels, u64),
        Set(&'static str, Labels, u64),
        SetMany(&'static str, Vec<(Labels, u64)>),
        Observe(&'static str, Labels, u64),
    }

    fn random_op(rng: &mut SplitMix64, labels: &[Labels]) -> Op {
        let name = NAMES[rng.next_below(NAMES.len() as u64) as usize];
        let pick = |rng: &mut SplitMix64| labels[rng.next_below(labels.len() as u64) as usize];
        let label = pick(rng);
        match rng.next_below(7) {
            0 | 1 => Op::Add(name, label, rng.next_below(1_000)),
            2 => Op::Set(name, label, rng.next_below(1 << 40)),
            3 | 4 => {
                let mut rows: Vec<(Labels, u64)> = (0..rng.next_below(12))
                    .map(|_| (pick(rng), rng.next_below(1 << 40)))
                    .collect();
                // The ascending order a sync writes in, the reverse of
                // it, or no order; sometimes with a label twice.
                match rng.next_below(4) {
                    0 | 1 => rows.sort_by_key(|&(l, _)| l),
                    2 => rows.sort_by_key(|&(l, _)| std::cmp::Reverse(l)),
                    _ => {}
                }
                Op::SetMany(name, rows)
            }
            _ => {
                let v = match rng.next_below(4) {
                    0 => 0,
                    1 => u64::MAX,
                    _ => rng.next_below(1 << 30),
                };
                Op::Observe(name, label, v)
            }
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
        }
    }

    /// Asserts that `table` holds what `reference` holds, read every way
    /// (with `typed`, through the typed getters too).
    fn assert_same(
        table: &Registry,
        reference: &reference::Registry,
        labels: &[Labels],
        typed: bool,
        at: &str,
    ) {
        assert_eq!(table.len(), reference.len(), "{at}");
        assert_eq!(table.is_empty(), reference.len() == 0, "{at}");
        assert!(table.iter().eq(reference.iter()), "{at}");
        // No family is ever empty.
        let mut names: Vec<&str> = reference.iter().map(|(n, _, _)| n).collect();
        names.dedup();
        assert!(table.families.keys().copied().eq(names), "{at}");
        for name in NAMES {
            for &l in labels {
                assert_eq!(table.get(name, l), reference.get(name, l), "{at}");
                if !typed {
                    continue;
                }
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

    #[test]
    fn the_family_table_replays_the_single_map_registry() {
        let (early, all) = label_universes();
        for seed in 0..4 {
            let mut rng = SplitMix64::new(seed);
            let (mut table, mut reference) = (Registry::new(), reference::Registry::default());
            for step in 0..600 {
                let labels = if step < 300 { &early } else { &all };
                let op = random_op(&mut rng, labels);
                apply(&op, &mut table, &mut reference);
                let at = format!("seed {seed} step {step}: {op:?}");
                assert_same(&table, &reference, &all, step % 50 == 0, &at);
            }
        }
    }

    #[test]
    fn ids_past_the_id_space_grow_no_table() {
        let mut r = Registry::new();
        let far = [
            Labels::host(HOST_LIMIT),
            Labels::host(u64::MAX),
            Labels::host_qp(0, QPN_LIMIT),
            Labels::host_qp(HOST_LIMIT, 1),
            Labels::host_qp(u64::MAX, u32::MAX),
        ];
        for l in far {
            r.counter_add("far", l, 1);
            r.gauge_set("far", l, 1);
            r.set_gauges("far", [(l, 1), (l, 2)]);
            r.observe("far", l, 1);
            assert_eq!(r.get("far", l), None);
        }
        // A write that lands nowhere creates no family.
        assert!(r.is_empty());
        assert!(r.families.is_empty());
        // The last ids inside it land, and a far row beside them is
        // skipped without dropping the rest of the snapshot.
        let last = Labels::host_qp(HOST_LIMIT - 1, 3);
        r.set_gauges("near", [(far[0], 5), (last, 6), (far[2], 7)]);
        assert_eq!(r.gauge("near", last), Some(6));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn a_qp_without_a_host_creates_no_family() {
        let mut r = Registry::new();
        for qpn in [0, 1, u32::MAX] {
            let l = Labels {
                host: None,
                qpn: Some(qpn),
            };
            r.counter_add("no_host", l, 1);
            r.gauge_set("no_host", l, 1);
            r.set_gauges("no_host", [(l, 1), (l, 2)]);
            r.observe("no_host", l, 1);
            assert_eq!(r.get("no_host", l), None);
        }
        assert!(r.is_empty());
        assert!(r.families.is_empty());
        // Nor does it displace the slots beside it in a snapshot.
        let no_host = Labels {
            host: None,
            qpn: Some(3),
        };
        r.set_gauges("near", [(no_host, 5), (Labels::NONE, 6)]);
        r.counter_add("near", no_host, 4);
        let all: Vec<_> = r.iter().collect();
        assert_eq!(all, [("near", Labels::NONE, &Instrument::Gauge(6))]);
        assert_eq!(r.len(), 1);
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
