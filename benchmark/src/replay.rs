//! Bare-layer replays: what the engine and the fabric alone would cost
//! for a workload's counts, with nothing above them.
//!
//! A layer's share of a run cannot be read off a stopwatch from outside
//! — the engine calls the handler, the handler calls the fabric — so
//! each lower layer is replayed on its own with the workload's measured
//! operation counts and its time is set against the untraced run time.
//! `verbs.self_share` is the remainder, which makes the three shares sum
//! to 1 by construction.

use std::hint::black_box;
use std::time::Instant;

use ibsim_event::{Engine, QueueStats, SimTime, TimerKey};
use ibsim_fabric::{Fabric, LinkSpec, TopologyKind};

use crate::yardstick::{Meter, Phase};

/// Iterations of a replay loop between looks at the clock.
const CHECK_EVERY: u64 = 8192;

/// Books the time since `started` to the meter, lets it read the
/// yardstick if a lap is due, and restarts the clock.
fn check_lap(meter: &mut Meter, started: &mut Instant) {
    meter.book(Phase::Run, started.elapsed().as_secs_f64());
    meter.lap_if_due();
    *started = Instant::now();
}

/// Closes a replay's meter; returns the normalised nanoseconds it ran.
fn finish_ns(mut meter: Meter, started: Instant) -> f64 {
    meter.book(Phase::Run, started.elapsed().as_secs_f64());
    meter.finish().run_s * 1e9
}

/// Bytes a replayed event closure captures. A real cluster event
/// captures a host, a QP number and usually a packet, so its box is a
/// real allocation; a capture-free closure would box for free and make
/// the bare engine look cheaper than it is.
const EVENT_PAYLOAD_WORDS: usize = 8;

/// Normalised nanoseconds per executed event of a bare [`Engine`] replaying the
/// schedule / replace / cancel / execute counts of `qs` at its peak
/// depth with no-op closures.
///
/// Half of the peak depth is held as keyed timers parked in the far
/// future (a flood's armed ACK and stall timers), the other half as
/// plain events a microsecond or two ahead (deliveries in flight). Each
/// executed event schedules its successor, and the workload's replaced
/// and cancelled counts are spread evenly over the run as keyed re-arms
/// and cancel-then-arm pairs, so the replay performs exactly
/// `executed + replaced + cancelled` schedule calls — the identity every
/// drained engine satisfies.
pub fn engine_replay_ns(qs: &QueueStats) -> f64 {
    let executed = qs.executed.max(1);
    let depth = qs.peak_depth.max(2);
    let timers = (depth / 2).max(1) as u64;
    let plain = (depth as u64 - timers).max(1);
    let far = SimTime::from_secs(3_600);
    let payload = [0x5au64; EVENT_PAYLOAD_WORDS];

    let mut eng: Engine<u64> = Engine::new();
    let mut world = 0u64;
    for k in 0..timers {
        eng.schedule_keyed_at(TimerKey(1, k), far, move |w, _| *w += payload[0]);
    }
    for i in 0..plain {
        eng.schedule_at(SimTime::from_ns(1_000 + i), move |w, _| *w += payload[1]);
    }

    let mut meter = Meter::start();
    let mut started = Instant::now();
    let (mut replace_acc, mut cancel_acc, mut next_key) = (0u64, 0u64, 0u64);
    for i in 0..executed {
        if i % CHECK_EVERY == CHECK_EVERY - 1 {
            check_lap(&mut meter, &mut started);
        }
        if !eng.step(&mut world) {
            break;
        }
        if i + plain < executed {
            let delay = SimTime::from_ns(1_000 + (i * 7_919) % 1_000);
            eng.schedule_in(delay, move |w, _| *w += payload[(i % 8) as usize]);
        }
        replace_acc += qs.replaced;
        while replace_acc >= executed {
            replace_acc -= executed;
            let key = TimerKey(1, next_key % timers);
            next_key += 1;
            eng.schedule_keyed_at(key, far, move |w, _| *w += payload[2]);
        }
        cancel_acc += qs.cancelled;
        while cancel_acc >= executed {
            cancel_acc -= executed;
            let key = TimerKey(1, next_key % timers);
            next_key += 1;
            eng.cancel_key(key);
            eng.schedule_keyed_at(key, far, move |w, _| *w += payload[3]);
        }
    }
    black_box(world);
    finish_ns(meter, started) / executed as f64
}

/// The shape of a workload's fabric traffic, for [`fabric_replay_ns`].
#[derive(Debug, Clone)]
pub struct FabricShape {
    /// Switch topology.
    pub topology: TopologyKind,
    /// Link of every host port.
    pub host_link: LinkSpec,
    /// Number of hosts.
    pub hosts: usize,
    /// `(src, dst)` host index pairs frames cycle over.
    pub pairs: Vec<(usize, usize)>,
}

/// Normalised nanoseconds per frame of a bare [`Fabric::transit`] replay: `frames`
/// frames of `mean_bytes` cycling over the shape's pairs, spread evenly
/// over the `span_ns` simulated nanoseconds the workload's run spanned.
pub fn fabric_replay_ns(shape: &FabricShape, frames: u64, mean_bytes: u32, span_ns: u64) -> f64 {
    let frames = frames.max(1);
    // `Cluster::new` builds its fabric with the default link spec; host
    // ports then take the device's link.
    let mut fabric = Fabric::new(LinkSpec::default());
    fabric.set_topology(shape.topology);
    let lids: Vec<_> = (0..shape.hosts)
        .map(|h| fabric.add_host_with(&format!("h{h}"), shape.host_link))
        .collect();
    let step_ns = (span_ns / frames).max(1);
    let mut meter = Meter::start();
    let mut started = Instant::now();
    let mut delivered = 0u64;
    for i in 0..frames {
        if i % CHECK_EVERY == CHECK_EVERY - 1 {
            check_lap(&mut meter, &mut started);
        }
        let (src, dst) = shape.pairs[(i % shape.pairs.len() as u64) as usize];
        let at = SimTime::from_ns(i * step_ns);
        if fabric
            .transit(at, lids[src], lids[dst], mean_bytes)
            .arrival()
            .is_some()
        {
            delivered += 1;
        }
    }
    black_box(delivered);
    finish_ns(meter, started) / frames as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_replay_performs_the_workloads_counts() {
        let qs = QueueStats {
            executed: 10_000,
            scheduled: 10_000 + 2_500 + 1_250,
            replaced: 2_500,
            cancelled: 1_250,
            peak_depth: 64,
            ..QueueStats::default()
        };
        assert!(engine_replay_ns(&qs) > 0.0);
        // Degenerate counts must not divide by zero or underflow.
        assert!(engine_replay_ns(&QueueStats::default()) >= 0.0);
    }

    #[test]
    fn fabric_replay_crosses_leaves_on_a_fat_tree() {
        let shape = FabricShape {
            topology: TopologyKind::FatTree { k: 4 },
            host_link: LinkSpec::fdr(),
            hosts: 8,
            pairs: (0..8).map(|i| (i, (i + 1) % 8)).collect(),
        };
        assert!(fabric_replay_ns(&shape, 4_096, 1_024, 4_096_000) > 0.0);
    }
}
