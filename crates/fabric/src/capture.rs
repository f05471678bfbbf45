//! `ibdump`-style packet capture.
//!
//! The paper's methodology hinges on capturing InfiniBand traffic with
//! `ibdump` and reading the packet timeline (Figures 1, 5 and 8). In the
//! simulator every frame can be recorded here, together with whether the
//! fabric delivered or dropped it — strictly more visibility than real
//! `ibdump`, which the paper could only run on hosts with `sudo`.
//!
//! The capture is generic over the payload type `P`; the verbs layer
//! instantiates it with its transport packet so analyses can look at
//! opcodes and PSNs.

use std::fmt;

use ibsim_event::SimTime;

use crate::topology::Lid;

/// Which way a captured frame was travelling relative to the capture point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Transmitted by the captured host.
    Tx,
    /// Received by the captured host.
    Rx,
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Direction::Tx => write!(f, "TX"),
            Direction::Rx => write!(f, "RX"),
        }
    }
}

/// One captured frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Captured<P> {
    /// Capture timestamp (transmit time for [`Direction::Tx`], arrival
    /// time for [`Direction::Rx`]).
    pub time: SimTime,
    /// Direction at the capture point.
    pub direction: Direction,
    /// Source port LID.
    pub src: Lid,
    /// Destination port LID.
    pub dst: Lid,
    /// Frame size in bytes.
    pub bytes: u32,
    /// True if the fabric dropped the frame (visible only on the TX side,
    /// like a capture running at the sending HCA).
    pub dropped: bool,
    /// The transport-layer payload (headers + semantics).
    pub payload: P,
}

/// An append-only capture buffer, one per observation point.
///
/// # Examples
///
/// ```
/// use ibsim_event::SimTime;
/// use ibsim_fabric::{Capture, Direction, Lid};
///
/// let mut cap: Capture<&'static str> = Capture::new();
/// cap.enable();
/// cap.record(SimTime::ZERO, Direction::Tx, Lid(1), Lid(2), 64, false, "READ req");
/// assert_eq!(cap.len(), 1);
/// assert_eq!(cap.records()[0].payload, "READ req");
/// ```
#[derive(Debug, Clone)]
pub struct Capture<P> {
    records: Vec<Captured<P>>,
    enabled: bool,
}

impl<P> Default for Capture<P> {
    fn default() -> Self {
        Capture {
            records: Vec::new(),
            enabled: false,
        }
    }
}

impl<P> Capture<P> {
    /// Creates a disabled capture.
    ///
    /// Recording costs nothing until enabled *provided the caller uses
    /// [`Capture::record_with`]*, which builds the payload lazily. The
    /// eager [`Capture::record`] takes the payload by value, so any
    /// clone made to produce that value is paid even while disabled.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts recording.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Stops recording (existing records are kept).
    pub fn disable(&mut self) {
        self.enabled = false;
    }

    /// True if currently recording.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records a frame if enabled, taking the payload by value.
    ///
    /// Prefer [`Capture::record_with`] on hot paths where producing the
    /// payload costs something (e.g. cloning a packet with a data
    /// buffer): this eager form forces the caller to materialize the
    /// payload even when the capture is disabled and the value is
    /// immediately thrown away.
    #[expect(
        clippy::too_many_arguments,
        reason = "one argument per `Captured` field, so a disabled capture builds nothing"
    )]
    pub fn record(
        &mut self,
        time: SimTime,
        direction: Direction,
        src: Lid,
        dst: Lid,
        bytes: u32,
        dropped: bool,
        payload: P,
    ) {
        self.record_with(time, direction, src, dst, bytes, dropped, || payload);
    }

    /// Records a frame if enabled, building the payload lazily.
    ///
    /// The closure runs only when the capture is enabled, so a disabled
    /// capture never materializes (or clones) the payload — this is what
    /// makes disabled captures genuinely free on the fabric hot path.
    ///
    /// ```
    /// use std::cell::Cell;
    /// use ibsim_event::SimTime;
    /// use ibsim_fabric::{Capture, Direction, Lid};
    ///
    /// let built = Cell::new(0u32);
    /// let payload = || {
    ///     built.set(built.get() + 1);
    ///     String::from("READ req psn=0")
    /// };
    /// let mut cap: Capture<String> = Capture::new();
    ///
    /// // Disabled: the payload closure never runs.
    /// cap.record_with(SimTime::ZERO, Direction::Tx, Lid(1), Lid(2), 64, false, payload);
    /// assert_eq!((built.get(), cap.len()), (0, 0));
    ///
    /// // Enabled: the closure runs exactly once per recorded frame.
    /// cap.enable();
    /// cap.record_with(SimTime::ZERO, Direction::Tx, Lid(1), Lid(2), 64, false, payload);
    /// assert_eq!((built.get(), cap.len()), (1, 1));
    /// ```
    #[expect(
        clippy::too_many_arguments,
        reason = "one argument per `Captured` field, so a disabled capture builds nothing"
    )]
    pub fn record_with(
        &mut self,
        time: SimTime,
        direction: Direction,
        src: Lid,
        dst: Lid,
        bytes: u32,
        dropped: bool,
        payload: impl FnOnce() -> P,
    ) {
        if self.enabled {
            self.records.push(Captured {
                time,
                direction,
                src,
                dst,
                bytes,
                dropped,
                payload: payload(),
            });
        }
    }

    /// All records in capture order.
    pub fn records(&self) -> &[Captured<P>] {
        &self.records
    }

    /// Number of captured frames.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterates over captured frames.
    pub fn iter(&self) -> std::slice::Iter<'_, Captured<P>> {
        self.records.iter()
    }
}

impl<P> IntoIterator for Capture<P> {
    type Item = Captured<P>;
    type IntoIter = std::vec::IntoIter<Captured<P>>;
    fn into_iter(self) -> Self::IntoIter {
        self.records.into_iter()
    }
}

impl<'a, P> IntoIterator for &'a Capture<P> {
    type Item = &'a Captured<P>;
    type IntoIter = std::slice::Iter<'a, Captured<P>>;
    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

impl<P: fmt::Display> Capture<P> {
    /// Renders the capture as an `ibdump`-like text timeline.
    pub fn timeline(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        // `SimTime`'s `Display` ignores width, so the time goes through
        // one reused scratch buffer to be padded.
        let mut time = String::new();
        for r in &self.records {
            let drop_mark = if r.dropped { "  [LOST IN FABRIC]" } else { "" };
            time.clear();
            let _ = write!(time, "{}", r.time);
            let _ = writeln!(
                out,
                "{time:>12}  {}  {} -> {}  {:>5}B  {}{drop_mark}",
                r.direction, r.src, r.dst, r.bytes, r.payload
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(cap: &mut Capture<u32>, t: u64, payload: u32) {
        cap.record(
            SimTime::from_ns(t),
            Direction::Tx,
            Lid(1),
            Lid(2),
            64,
            false,
            payload,
        );
    }

    #[test]
    fn disabled_capture_records_nothing() {
        let mut cap: Capture<u32> = Capture::new();
        rec(&mut cap, 1, 7);
        assert!(cap.is_empty());
        assert!(!cap.is_enabled());
    }

    #[test]
    fn enabled_capture_records_in_order() {
        let mut cap: Capture<u32> = Capture::new();
        cap.enable();
        rec(&mut cap, 1, 7);
        rec(&mut cap, 2, 8);
        assert_eq!(cap.len(), 2);
        let payloads: Vec<u32> = cap.iter().map(|r| r.payload).collect();
        assert_eq!(payloads, vec![7, 8]);
    }

    #[test]
    fn disable_keeps_existing_records() {
        let mut cap: Capture<u32> = Capture::new();
        cap.enable();
        rec(&mut cap, 1, 7);
        cap.disable();
        rec(&mut cap, 2, 8);
        assert_eq!(cap.len(), 1);
    }

    #[test]
    fn timeline_marks_drops() {
        let mut cap: Capture<&str> = Capture::new();
        cap.enable();
        cap.record(
            SimTime::from_us(1),
            Direction::Tx,
            Lid(1),
            Lid(2),
            64,
            true,
            "READ req psn=0",
        );
        let text = cap.timeline();
        assert!(text.contains("LOST IN FABRIC"));
        assert!(text.contains("READ req psn=0"));
        assert!(text.contains("lid1 -> lid2"));
    }

    /// A payload whose clones are counted, so tests can prove the
    /// disabled path never touches it.
    #[derive(Debug)]
    struct CloneCounter(std::rc::Rc<Cell<u32>>);

    use std::cell::Cell;

    impl Clone for CloneCounter {
        fn clone(&self) -> Self {
            self.0.set(self.0.get() + 1);
            CloneCounter(std::rc::Rc::clone(&self.0))
        }
    }

    #[test]
    fn disabled_record_with_performs_zero_clones() {
        let clones = std::rc::Rc::new(Cell::new(0u32));
        let payload = CloneCounter(std::rc::Rc::clone(&clones));
        let mut cap: Capture<CloneCounter> = Capture::new();
        for t in 0..16 {
            cap.record_with(
                SimTime::from_ns(t),
                Direction::Tx,
                Lid(1),
                Lid(2),
                64,
                false,
                || payload.clone(),
            );
        }
        // Disabled capture: the closure never ran, so zero clones.
        assert_eq!(clones.get(), 0);
        assert!(cap.is_empty());

        cap.enable();
        cap.record_with(
            SimTime::from_ns(99),
            Direction::Rx,
            Lid(2),
            Lid(1),
            64,
            false,
            || payload.clone(),
        );
        // Enabled capture: exactly one clone per recorded frame.
        assert_eq!(clones.get(), 1);
        assert_eq!(cap.len(), 1);
    }

    #[test]
    fn eager_record_still_respects_enable_flag() {
        let clones = std::rc::Rc::new(Cell::new(0u32));
        let payload = CloneCounter(std::rc::Rc::clone(&clones));
        let mut cap: Capture<CloneCounter> = Capture::new();
        // The eager form clones at the call site by construction; the
        // record itself must still be suppressed while disabled.
        cap.record(
            SimTime::ZERO,
            Direction::Tx,
            Lid(1),
            Lid(2),
            64,
            false,
            payload.clone(),
        );
        assert!(cap.is_empty());
        assert_eq!(clones.get(), 1);
    }

    #[test]
    fn into_iterator_consumes() {
        let mut cap: Capture<u32> = Capture::new();
        cap.enable();
        rec(&mut cap, 1, 7);
        let v: Vec<Captured<u32>> = cap.into_iter().collect();
        assert_eq!(v.len(), 1);
    }
}
