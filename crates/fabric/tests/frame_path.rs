//! The frame path of a routed fabric, seen from outside the crate: it
//! allocates nothing once its links exist, its tables follow the traffic
//! and not the size of the switch graph, and a topology installed after
//! the hosts re-attaches them.
//!
//! The allocation counters are per thread, so the tests of this binary
//! can run in parallel without billing each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ibsim_event::SimTime;
use ibsim_fabric::{Fabric, Lid, LinkSpec, RouteNode, SwitchId, TopologyKind};

struct Counting;

thread_local! {
    /// `(allocations, bytes requested)` by this thread. Const-initialised
    /// and without a destructor, so touching it never allocates.
    static ALLOCATED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn count(bytes: usize) {
    // A thread past its TLS teardown is not one a test measures.
    let _ = ALLOCATED.try_with(|c| c.set((c.get().0 + 1, c.get().1 + bytes as u64)));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is plain thread-local data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn counts() -> (u64, u64) {
    ALLOCATED.get()
}

fn fabric_with(kind: TopologyKind, hosts: u16) -> Fabric {
    let mut f = Fabric::new(LinkSpec::edr());
    f.set_topology(kind);
    for h in 0..hosts {
        f.add_host(&format!("h{h}"));
    }
    f
}

/// Every ordered pair of distinct hosts, `frames` times over.
fn all_pairs(f: &mut Fabric, hosts: u16, frames: usize) {
    let pairs = (1..=hosts).flat_map(|s| (1..=hosts).filter(move |&d| d != s).map(move |d| (s, d)));
    for (i, (s, d)) in pairs.cycle().take(frames).enumerate() {
        let at = SimTime::from_ns(i as u64 * 50);
        assert!(f.transit(at, Lid(s), Lid(d), 256).arrival().is_some());
    }
}

/// Steady state: after one pass has created every link the traffic
/// uses, 10 000 routed frames allocate nothing at all — with the
/// ECN marking armed, so its branch runs too.
#[test]
fn transit_allocates_nothing_once_its_links_exist() {
    for kind in [
        TopologyKind::FatTree { k: 4 },
        TopologyKind::Ring { switches: 5 },
        TopologyKind::Dragonfly { groups: 3 },
    ] {
        let hosts = 8;
        let mut f = fabric_with(kind, hosts);
        f.set_congestion(Some(SimTime::from_ns(10)));
        all_pairs(&mut f, hosts, usize::from(hosts * (hosts - 1)));
        let links = f.inter_links().count();
        let before = counts();
        all_pairs(&mut f, hosts, 10_000);
        assert_eq!(counts().0 - before.0, 0, "{kind}: transit allocated");
        assert_eq!(
            f.inter_links().count(),
            links,
            "{kind}: warm-up missed a link"
        );
        assert!(f.total_ecn_marks() > 0, "{kind}");
    }
}

/// Two hosts on the largest graph of each kind cost what two hosts and
/// their few links cost: building allocates nothing per switch, and
/// traffic at most one empty row per switch id below the highest
/// transmitting one (the fat-tree's spine, 43 691 rows of 24 bytes),
/// never a cell per switch pair (4 billion of them).
#[test]
fn tables_follow_the_traffic_not_the_switch_count() {
    for (kind, hops) in [
        (TopologyKind::FatTree { k: 43690 }, 2),
        (TopologyKind::Ring { switches: 65535 }, 1),
        (TopologyKind::Dragonfly { groups: 32767 }, 1),
    ] {
        let before = counts();
        let mut f = fabric_with(kind, 2);
        let built = counts();
        assert!(
            built.1 - before.1 < 4096,
            "{kind}: {} B",
            built.1 - before.1
        );
        assert_eq!(f.route(Lid(1), Lid(2)).map(|r| r.len()), Some(hops + 2));
        all_pairs(&mut f, 2, 2);
        assert_eq!(f.inter_links().count(), 2 * hops, "{kind}");
        let used = counts().1 - built.1;
        assert!(used < 2 * 1024 * 1024, "{kind}: {used} B for two hosts");
    }
}

#[test]
fn inter_links_lists_exactly_the_links_that_carried_frames_in_order() {
    let mut f = fabric_with(TopologyKind::Dragonfly { groups: 3 }, 6);
    assert_eq!(f.inter_links().count(), 0);
    // Highest-numbered switches first, so creation order is not id
    // order; the repeated pair adds frames, not links.
    let mut hops: Vec<(SwitchId, SwitchId)> = Vec::new();
    for (s, d) in [(6, 1), (5, 2), (1, 4), (2, 3), (6, 1)] {
        f.transit(SimTime::ZERO, Lid(s), Lid(d), 64);
        let route = f.route(Lid(s), Lid(d)).expect("registered hosts");
        hops.extend(route.iter().filter_map(|hop| match (hop.from, hop.to) {
            (RouteNode::Switch(a), RouteNode::Switch(b)) => Some((a, b)),
            _ => None,
        }));
    }
    let frames = hops.len() as u64;
    hops.sort_unstable();
    hops.dedup();
    let listed: Vec<_> = f.inter_links().collect();
    let links: Vec<_> = listed.iter().map(|&(a, b, _)| (a, b)).collect();
    assert_eq!(links, hops, "every link driven, nothing else, ascending");
    assert!(listed.iter().all(|(_, _, s)| s.frames >= 1));
    assert_eq!(listed.iter().map(|(_, _, s)| s.frames).sum::<u64>(), frames);
}

#[test]
fn a_topology_installed_after_the_hosts_re_attaches_every_port() {
    let kind = TopologyKind::Ring { switches: 5 };
    let hosts = 7;
    let before = fabric_with(kind, hosts);
    let mut after = fabric_with(TopologyKind::Crossbar, hosts);
    assert_eq!(after.route(Lid(1), Lid(4)).map(|r| r.len()), Some(2));
    after.set_topology(kind);
    for s in 1..=hosts {
        // The first switch of a route is the source's attachment.
        let first = after.route(Lid(s), Lid(1)).expect("registered hosts")[0].to;
        assert_eq!(first, RouteNode::Switch(kind.attach(s - 1)), "lid{s}");
        for d in 1..=hosts {
            assert_eq!(after.route(Lid(s), Lid(d)), before.route(Lid(s), Lid(d)));
            assert_eq!(
                after.idle_transit(Lid(s), Lid(d), 64),
                before.idle_transit(Lid(s), Lid(d), 64)
            );
        }
    }
    // And back: the crossbar forgets the ring's attachments.
    after.set_topology(TopologyKind::Crossbar);
    assert_eq!(after.route(Lid(2), Lid(5)).map(|r| r.len()), Some(2));
}
