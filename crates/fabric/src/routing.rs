//! Switch topologies and deterministic route computation.
//!
//! A [`TopologyKind`] describes the switch graph of a subnet and is its
//! own route computer: [`TopologyKind::next_hop`] is a closed form for
//! the switch a frame standing at `cur` and bound for `dst` is forwarded
//! to, and every route in the crate is a walk over that one function.
//! Routes are a pure function of the topology parameters and the
//! endpoint indices — never of construction order, traffic history, or
//! load — so every replica of a sharded run computes bit-identical
//! paths, and the seeded route fuzz can replay any of them.
//!
//! The catalog is closed. Four kinds cover the shapes the congestion
//! studies need; a fifth is a new variant, and the exhaustive matches
//! below refuse to compile until it validates, attaches and routes.
//!
//! * [`TopologyKind::Crossbar`] — every host on one switch; the
//!   historical default, and the timing-identity baseline every golden
//!   trace is pinned against.
//! * [`TopologyKind::FatTree`] — `k` leaf switches fully meshed to
//!   `k/2` spines; the classic shared-uplink shape where a flood storm
//!   and a victim flow contend for the same leaf→spine link.
//! * [`TopologyKind::Ring`] — `n` switches in a cycle, shortest-path
//!   routed with a deterministic clockwise tie-break.
//! * [`TopologyKind::Dragonfly`] — `g` groups of two routers, cliqued
//!   inside a group, one global link per group pair through fixed
//!   gateway routers.
//!
//! A closed form, not a `dyn Topology`: every shape forwards in O(1), so
//! a trait object would only add two virtual calls per frame and a
//! second vocabulary for the same four cases. A unit test replays
//! per-shape route builders against [`TopologyKind::next_hop`] on all
//! 3 737 attachment-switch pairs of crossbar, fat-tree 2..16, ring 2..17
//! and dragonfly 2..9.

use std::fmt;

use crate::topology::Lid;

/// Identifier of one switch inside a [`TopologyKind`] (dense from 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SwitchId(pub u16);

impl fmt::Display for SwitchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sw{}", self.0)
    }
}

/// The topology catalog: plain serializable data that routes itself.
///
/// The scenario spec's `topology=` facet round-trips through
/// [`fmt::Display`] / [`std::str::FromStr`]; tokens are single words
/// (`crossbar`, `fattree4`, `ring5`, `dragonfly3`) so they fit the
/// line-oriented spec format without escaping.
///
/// The route methods ([`switch_count`](Self::switch_count),
/// [`attach`](Self::attach), [`next_hop`](Self::next_hop),
/// [`route_switches`](Self::route_switches)) assume a kind that passes
/// [`validate`](Self::validate) — `FromStr` and
/// [`Fabric::set_topology`](crate::Fabric::set_topology) admit no other —
/// and switch ids below `switch_count()`. They honor three properties
/// that the seeded route fuzz relies on:
///
/// * **Purity** — a route depends only on the parameters and the two
///   endpoints. No interior mutability, no load awareness.
/// * **Completeness** — for any two *attachment* switches (values of
///   `attach`) the walk from `a` reaches `b` over physical links of the
///   topology, and `route_switches(s, s)` is `[s]`. Routes between
///   non-attachment switches (e.g. fat-tree spines) are not part of the
///   contract — no host lives there, so the fabric never asks.
/// * **Attachment stability** — `attach(i)` depends only on `i`, so a
///   host's switch never changes as later hosts join.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TopologyKind {
    /// One switch, every host attached to it (the historical default).
    #[default]
    Crossbar,
    /// `k` leaf switches, each connected to every one of `k/2` spine
    /// switches. Hosts attach round-robin to leaves. `k` must be an
    /// even number in `2..=43690` (`k + k/2` switch ids fit 16 bits).
    FatTree {
        /// Number of leaf switches.
        k: u16,
    },
    /// `n` switches in a cycle, `n` in `2..=65535`; shortest-direction
    /// routing, ties broken clockwise (ascending switch index).
    Ring {
        /// Number of switches on the ring.
        switches: u16,
    },
    /// `g` groups of two routers each, `g` in `2..=32767` (`2g` switch
    /// ids fit 16 bits): group `g` owns routers `2g` and `2g + 1`, which
    /// are directly linked, and each ordered group pair shares one global
    /// link between deterministically chosen gateway routers.
    Dragonfly {
        /// Number of router groups.
        groups: u16,
    },
}

impl TopologyKind {
    /// Every built-in kind at a small representative size, for tests and
    /// fuzzers that want to sweep the catalog.
    pub const ALL_SAMPLES: [TopologyKind; 4] = [
        TopologyKind::Crossbar,
        TopologyKind::FatTree { k: 2 },
        TopologyKind::Ring { switches: 3 },
        TopologyKind::Dragonfly { groups: 2 },
    ];

    /// Validates the parameters; returns the first problem found.
    ///
    /// Beyond the shape rules of each variant, every switch id must fit
    /// [`SwitchId`]'s 16 bits: a size needing more than 65535 switches
    /// is rejected here instead of overflowing mid-run.
    pub fn validate(self) -> Result<(), String> {
        match self {
            TopologyKind::Crossbar => {}
            TopologyKind::FatTree { k } => {
                if k < 2 || k % 2 != 0 {
                    return Err(format!("fat-tree needs an even leaf count >= 2, got {k}"));
                }
            }
            TopologyKind::Ring { switches } => {
                if switches < 2 {
                    return Err(format!("ring needs at least 2 switches, got {switches}"));
                }
            }
            TopologyKind::Dragonfly { groups } => {
                if groups < 2 {
                    return Err(format!("dragonfly needs at least 2 groups, got {groups}"));
                }
            }
        }
        let n = self.switches_wide();
        if n > u32::from(u16::MAX) {
            return Err(format!(
                "{self} needs {n} switches, but switch ids are 16-bit (at most {})",
                u16::MAX
            ));
        }
        Ok(())
    }

    /// The switch count before it is narrowed to a [`SwitchId`], so
    /// `validate` can see the sizes that do not fit.
    fn switches_wide(self) -> u32 {
        match self {
            TopologyKind::Crossbar => 1,
            TopologyKind::FatTree { k } => u32::from(k) + u32::from(k) / 2,
            TopologyKind::Ring { switches } => u32::from(switches),
            TopologyKind::Dragonfly { groups } => 2 * u32::from(groups),
        }
    }

    /// Number of switches in the graph (ids are `0..switch_count()`).
    pub fn switch_count(self) -> u16 {
        self.switches_wide() as u16
    }

    /// The switch the `i`-th registered host attaches to (hosts are
    /// indexed densely in LID order): round-robin over the switches
    /// hosts may live on — fat-tree leaves, every ring switch, every
    /// dragonfly router.
    pub fn attach(self, host_index: u16) -> SwitchId {
        SwitchId(match self {
            TopologyKind::Crossbar => 0,
            TopologyKind::FatTree { k } => host_index % k,
            TopologyKind::Ring { .. } | TopologyKind::Dragonfly { .. } => {
                host_index % self.switch_count()
            }
        })
    }

    /// The switch a frame at `cur` bound for `dst` is forwarded to;
    /// `dst` itself once it has arrived. This is the only copy of the
    /// routing decision: the frame path walks it hop by hop, so a route
    /// needs no storage, no cache and no invalidation.
    pub fn next_hop(self, cur: SwitchId, dst: SwitchId) -> SwitchId {
        if cur == dst {
            return dst;
        }
        // Widened: `c + d` and `c + n` may not fit 16 bits at the largest
        // accepted sizes. Every result is a switch id, so it narrows back.
        let (c, d) = (u32::from(cur.0), u32::from(dst.0));
        let next = match self {
            TopologyKind::Crossbar => d,
            // Leaves are `0..k`, spines `k..k + k/2`. The spine is a
            // static hash of the leaf pair, so the same pair always
            // shares the same uplink — which is exactly what the
            // congestion study wants: a storm and a victim between the
            // same leaves collide by construction.
            TopologyKind::FatTree { k } => {
                let k = u32::from(k);
                if c < k {
                    k + (c + d) % (k / 2)
                } else {
                    d
                }
            }
            // Shortest direction; the exact half-way tie goes clockwise
            // so both replicas of a sharded run agree without consulting
            // state. A step never flips the comparison, so deciding
            // afresh at every hop keeps the direction chosen at the first.
            TopologyKind::Ring { switches } => {
                let n = u32::from(switches);
                let clockwise = (d + n - c) % n;
                let counter = (c + n - d) % n;
                let step = if clockwise <= counter { 1 } else { n - 1 };
                (c + step) % n
            }
            // Group `g` reaches group `h` through its gateway router
            // `2g + h % 2`: the parity split spreads global links across
            // both routers of a group while staying a pure function of
            // the group pair. So: to the own gateway, across the one
            // global link, then to `dst` inside its group.
            TopologyKind::Dragonfly { .. } => {
                let (gc, gd) = (c / 2, d / 2);
                let out = 2 * gc + gd % 2;
                if gc == gd {
                    d
                } else if c != out {
                    out
                } else {
                    2 * gd + gc % 2
                }
            }
        };
        SwitchId(next as u16)
    }

    /// The directed inter-switch hops of the route `from → to`, in
    /// order: the [`next_hop`](Self::next_hop) walk, allocation-free.
    pub(crate) fn hops(
        self,
        from: SwitchId,
        to: SwitchId,
    ) -> impl Iterator<Item = (SwitchId, SwitchId)> {
        let mut cur = from;
        std::iter::from_fn(move || {
            (cur != to).then(|| {
                let hop = (cur, self.next_hop(cur, to));
                cur = hop.1;
                hop
            })
        })
    }

    /// The switch sequence from `from` to `to`, inclusive of both.
    pub fn route_switches(self, from: SwitchId, to: SwitchId) -> Vec<SwitchId> {
        std::iter::once(from)
            .chain(self.hops(from, to).map(|(_, next)| next))
            .collect()
    }
}

impl fmt::Display for TopologyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyKind::Crossbar => write!(f, "crossbar"),
            TopologyKind::FatTree { k } => write!(f, "fattree{k}"),
            TopologyKind::Ring { switches } => write!(f, "ring{switches}"),
            TopologyKind::Dragonfly { groups } => write!(f, "dragonfly{groups}"),
        }
    }
}

impl std::str::FromStr for TopologyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let parse_param = |rest: &str, what: &str| -> Result<u16, String> {
            rest.parse()
                .map_err(|_| format!("bad {what} parameter {rest:?}"))
        };
        let kind = if s == "crossbar" {
            TopologyKind::Crossbar
        } else if let Some(rest) = s.strip_prefix("fattree") {
            TopologyKind::FatTree {
                k: parse_param(rest, "fat-tree")?,
            }
        } else if let Some(rest) = s.strip_prefix("ring") {
            TopologyKind::Ring {
                switches: parse_param(rest, "ring")?,
            }
        } else if let Some(rest) = s.strip_prefix("dragonfly") {
            TopologyKind::Dragonfly {
                groups: parse_param(rest, "dragonfly")?,
            }
        } else {
            return Err(format!("unknown topology kind {s:?}"));
        };
        kind.validate()?;
        Ok(kind)
    }
}

/// One endpoint of a [`DirectedLink`]: a host NIC port or a switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RouteNode {
    /// A host NIC port, by LID.
    Host(Lid),
    /// A switch, by topology-local id.
    Switch(SwitchId),
}

impl fmt::Display for RouteNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteNode::Host(lid) => write!(f, "{lid}"),
            RouteNode::Switch(sw) => write!(f, "{sw}"),
        }
    }
}

/// One directed hop of a route. Direction matters: the fabric keeps
/// independent serialization horizons (and telemetry) per direction, so
/// `(a → b)` and `(b → a)` never contend with each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DirectedLink {
    /// Transmitting end.
    pub from: RouteNode,
    /// Receiving end.
    pub to: RouteNode,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::Xorshift64Star;

    /// The switches any host can actually attach to (sweeping well past
    /// one round-robin cycle of host indices).
    fn attachment_switches(kind: TopologyKind) -> Vec<SwitchId> {
        let mut set: Vec<SwitchId> = (0..4 * kind.switch_count())
            .map(|i| kind.attach(i))
            .collect();
        set.sort_unstable();
        set.dedup();
        set
    }

    /// The route contract over every ordered pair of `switches`.
    fn assert_route_contract(kind: TopologyKind, switches: &[SwitchId]) {
        let n = kind.switch_count();
        for &SwitchId(a) in switches {
            for &SwitchId(b) in switches {
                let path = kind.route_switches(SwitchId(a), SwitchId(b));
                assert_eq!(path.first(), Some(&SwitchId(a)), "{kind:?} {a}->{b}");
                assert_eq!(path.last(), Some(&SwitchId(b)), "{kind:?} {a}->{b}");
                if a == b {
                    assert_eq!(path.len(), 1, "{kind:?} self-route must be trivial");
                }
                for w in path.windows(2) {
                    assert_ne!(w[0], w[1], "{kind:?} {a}->{b}: repeated switch");
                    assert!(w[0].0 < n && w[1].0 < n, "{kind:?} {a}->{b}: bad id");
                }
            }
        }
    }

    #[test]
    fn every_builtin_satisfies_the_route_contract() {
        for kind in [
            TopologyKind::Crossbar,
            TopologyKind::FatTree { k: 2 },
            TopologyKind::FatTree { k: 4 },
            TopologyKind::FatTree { k: 8 },
            TopologyKind::Ring { switches: 2 },
            TopologyKind::Ring { switches: 5 },
            TopologyKind::Ring { switches: 8 },
            TopologyKind::Dragonfly { groups: 2 },
            TopologyKind::Dragonfly { groups: 4 },
        ] {
            assert_route_contract(kind, &attachment_switches(kind));
        }
    }

    /// The routes as the per-kind route builders constructed them before
    /// `next_hop` replaced them, kept as the reference the closed form
    /// must reproduce switch for switch.
    fn constructed_route(kind: TopologyKind, from: u16, to: u16) -> Vec<SwitchId> {
        if from == to {
            return vec![SwitchId(from)];
        }
        let path = match kind {
            TopologyKind::Crossbar => vec![from],
            TopologyKind::FatTree { k } => vec![from, k + (from + to) % (k / 2), to],
            TopologyKind::Ring { switches: n } => {
                let clockwise = (to + n - from) % n;
                let counter = (from + n - to) % n;
                let step = if clockwise <= counter { 1 } else { n - 1 };
                let mut path = vec![from];
                while path[path.len() - 1] != to {
                    path.push((path[path.len() - 1] + step) % n);
                }
                path
            }
            TopologyKind::Dragonfly { .. } if from / 2 == to / 2 => vec![from, to],
            TopologyKind::Dragonfly { .. } => {
                let out = 2 * (from / 2) + (to / 2) % 2;
                let inn = 2 * (to / 2) + (from / 2) % 2;
                let mut path = vec![from, out, inn, to];
                path.dedup();
                path
            }
        };
        path.into_iter().map(SwitchId).collect()
    }

    #[test]
    fn next_hop_walks_reproduce_the_constructed_routes() {
        let kinds = std::iter::once(TopologyKind::Crossbar)
            .chain((1..=8).map(|h| TopologyKind::FatTree { k: 2 * h }))
            .chain((2..=17).map(|switches| TopologyKind::Ring { switches }))
            .chain((2..=9).map(|groups| TopologyKind::Dragonfly { groups }));
        let mut pairs = 0;
        for kind in kinds {
            let switches = attachment_switches(kind);
            for &a in &switches {
                for &b in &switches {
                    assert_eq!(
                        kind.route_switches(a, b),
                        constructed_route(kind, a.0, b.0),
                        "{kind} {a}->{b}"
                    );
                    pairs += 1;
                }
            }
        }
        assert_eq!(pairs, 3737);
    }

    #[test]
    fn crossbar_routes_are_single_switch() {
        let t = TopologyKind::Crossbar;
        assert_eq!(t.switch_count(), 1);
        assert_eq!(t.attach(0), SwitchId(0));
        assert_eq!(t.attach(17), SwitchId(0));
        assert_eq!(t.route_switches(SwitchId(0), SwitchId(0)), [SwitchId(0)]);
    }

    #[test]
    fn fattree_pairs_share_a_fixed_spine() {
        let t = TopologyKind::FatTree { k: 4 };
        assert_eq!(t.switch_count(), 6); // 4 leaves + 2 spines
        let via = t.route_switches(SwitchId(0), SwitchId(1));
        assert_eq!(via.len(), 3);
        assert!(via[1].0 >= 4, "middle hop is a spine");
        // The reverse direction uses the same spine (symmetric hash).
        assert_eq!(t.route_switches(SwitchId(1), SwitchId(0))[1], via[1]);
        // Leaves 0..4 round-robin host attachment.
        assert_eq!(t.attach(5), SwitchId(1));
    }

    #[test]
    fn ring_routes_take_the_shortest_direction() {
        let t = TopologyKind::Ring { switches: 5 };
        assert_eq!(
            t.route_switches(SwitchId(0), SwitchId(1)),
            [SwitchId(0), SwitchId(1)]
        );
        // 0 -> 4 is one counter-clockwise hop, not four clockwise ones.
        assert_eq!(
            t.route_switches(SwitchId(0), SwitchId(4)),
            [SwitchId(0), SwitchId(4)]
        );
        // Even split on an even ring breaks clockwise.
        let even = TopologyKind::Ring { switches: 4 };
        assert_eq!(
            even.route_switches(SwitchId(0), SwitchId(2)),
            [SwitchId(0), SwitchId(1), SwitchId(2)]
        );
    }

    #[test]
    fn dragonfly_routes_use_one_global_link() {
        let t = TopologyKind::Dragonfly { groups: 3 };
        assert_eq!(t.switch_count(), 6);
        // Intra-group is a single hop.
        assert_eq!(
            t.route_switches(SwitchId(0), SwitchId(1)),
            [SwitchId(0), SwitchId(1)]
        );
        // Inter-group routes cross exactly one group boundary.
        for a in 0..6 {
            for b in 0..6 {
                let path = t.route_switches(SwitchId(a), SwitchId(b));
                let crossings = path.windows(2).filter(|w| w[0].0 / 2 != w[1].0 / 2).count();
                assert!(crossings <= 1, "{a}->{b}: {path:?}");
            }
        }
    }

    #[test]
    fn kind_tokens_round_trip() {
        for kind in [
            TopologyKind::Crossbar,
            TopologyKind::FatTree { k: 6 },
            TopologyKind::Ring { switches: 7 },
            TopologyKind::Dragonfly { groups: 3 },
        ] {
            let token = kind.to_string();
            let back: TopologyKind = token.parse().unwrap_or_else(|e| panic!("{token}: {e}"));
            assert_eq!(kind, back, "{token}");
        }
        assert!("torus3".parse::<TopologyKind>().is_err());
        assert!("fattree".parse::<TopologyKind>().is_err());
        assert!(
            "fattree3".parse::<TopologyKind>().is_err(),
            "odd leaf count"
        );
        assert!("ring1".parse::<TopologyKind>().is_err());
        assert!("dragonfly1".parse::<TopologyKind>().is_err());
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        assert!(TopologyKind::FatTree { k: 3 }.validate().is_err());
        assert!(TopologyKind::FatTree { k: 0 }.validate().is_err());
        assert!(TopologyKind::Ring { switches: 1 }.validate().is_err());
        assert!(TopologyKind::Dragonfly { groups: 1 }.validate().is_err());
        assert!(TopologyKind::Crossbar.validate().is_ok());
    }

    /// A few attachment switches of a kind too large to sweep: both ends
    /// of the id space (where 16-bit sums used to overflow) and the
    /// half-way point (the ring's longest route and its tie-break).
    fn edge_switches(kind: TopologyKind) -> Vec<SwitchId> {
        let last = match kind {
            TopologyKind::FatTree { k } => k - 1,
            TopologyKind::Crossbar | TopologyKind::Ring { .. } | TopologyKind::Dragonfly { .. } => {
                kind.switch_count() - 1
            }
        };
        let mut set: Vec<SwitchId> = [0, 1, last / 2, last / 2 + 1, last.saturating_sub(1), last]
            .into_iter()
            .map(|i| kind.attach(i))
            .collect();
        set.sort_unstable();
        set.dedup();
        set
    }

    #[test]
    fn sizes_whose_switch_ids_do_not_fit_are_rejected_at_the_edge() {
        // The largest accepted size of each kind parses, round-trips and
        // routes between the far ends of its id space ...
        for (token, switches) in [
            ("fattree43690", 65535),
            ("ring65535", 65535),
            ("dragonfly32767", 65534),
        ] {
            let kind: TopologyKind = token.parse().unwrap_or_else(|e| panic!("{token}: {e}"));
            assert_eq!(kind.to_string(), token);
            assert_eq!(kind.switch_count(), switches, "{token}");
            assert_route_contract(kind, &edge_switches(kind));
        }
        // ... and the next size up is a typed error, not an overflow in
        // `attach` once the run is under way.
        for token in [
            "fattree43692",
            "fattree65534",
            "dragonfly32768",
            "dragonfly40000",
            "dragonfly65535",
            "ring65536",
        ] {
            let err = token.parse::<TopologyKind>().expect_err(token);
            assert!(
                err.contains("16-bit") || err.contains("bad ring parameter"),
                "{token}: {err}"
            );
        }
    }

    #[test]
    fn parsing_hostile_bytes_never_panics_and_every_ok_routes() {
        const STEMS: [&str; 6] = ["crossbar", "fattree", "ring", "dragonfly", "torus", ""];
        const TAILS: [&str; 8] = [
            "0",
            "1",
            "2",
            "43690",
            "43692",
            "65535",
            "65536",
            "99999999999",
        ];
        let mut rng = Xorshift64Star::new(0x13);
        let mut accepted = 0;
        for _ in 0..4096 {
            // A plausible token — a known stem, then an edge-case or a
            // random parameter — with up to three bytes overwritten,
            // inserted or removed anywhere in it.
            let mut bytes = STEMS[rng.next_below(6) as usize].as_bytes().to_vec();
            match rng.next_below(3) {
                0 => bytes.extend_from_slice(TAILS[rng.next_below(8) as usize].as_bytes()),
                1 => bytes.extend_from_slice(rng.next_below(70_000).to_string().as_bytes()),
                _ => {}
            }
            for _ in 0..rng.next_below(4) {
                let at = rng.next_below(bytes.len() as u64 + 1) as usize;
                let byte = rng.next_u64() as u8;
                match rng.next_below(3) {
                    0 if at < bytes.len() => bytes[at] = byte,
                    1 if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    _ => bytes.insert(at, byte),
                }
            }
            let token = String::from_utf8_lossy(&bytes);
            let Ok(kind) = token.parse::<TopologyKind>() else {
                continue;
            };
            accepted += 1;
            assert_eq!(kind.validate(), Ok(()), "{token:?}");
            assert_eq!(kind.to_string().parse(), Ok(kind), "{token:?}");
            assert_route_contract(kind, &edge_switches(kind));
        }
        assert!(
            accepted > 100,
            "the fuzz must reach the Ok side: {accepted}"
        );
    }
}
