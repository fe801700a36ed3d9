//! Deterministic fault injection: sampled fault plans applied to the
//! engine at absolute simulation times.
//!
//! A [`FaultPlan`] is a time-sorted list of link-state transitions —
//! fail-stop link/node failures at t = 0 and transient link outages
//! (down at a sampled start, back up one outage later). Plans are sampled
//! from a [`SimRng`] stream (callers use the per-replication `"faults"`
//! substream), so for a given spec, seed and replication index the plan is
//! byte-identical no matter how many worker threads run — the same
//! determinism contract as the rest of the harness.
//!
//! Node failures are expanded at sampling time into the failure of every
//! link entering or leaving the node, so the engine only ever sees link
//! transitions ([`FaultKind::LinkDown`] / [`FaultKind::LinkUp`]) and stays
//! topology-generic.

use serde::Serialize;
use wormcast_sim::{SimRng, SimTime};
use wormcast_topology::{ChannelId, Mesh, Sign, Topology};

/// A link-state transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The channel goes down: never granted while down; a message already
    /// crossing it drains, but waiters stall until the watchdog reaps them
    /// (or the link comes back).
    LinkDown(ChannelId),
    /// The channel comes back up (end of a transient outage) and is handed
    /// to the head of its wait queue, if any.
    LinkUp(ChannelId),
}

/// One scheduled fault event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Absolute simulation time the transition takes effect.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// Sampling rates for a [`FaultPlan`]. All-zero rates sample the empty
/// plan, which the engine treats exactly like no fault injection at all.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct FaultSpec {
    /// Probability that each physical link fails permanently at t = 0.
    pub link_fail_rate: f64,
    /// Probability that each node fails at t = 0 (every incident link, both
    /// directions, goes down).
    pub node_fail_rate: f64,
    /// Probability that each link suffers one transient outage.
    pub transient_rate: f64,
    /// Window (µs) over which transient outage start times are drawn
    /// uniformly.
    pub transient_window_us: f64,
    /// Duration (µs) of a transient outage.
    pub outage_us: f64,
}

impl FaultSpec {
    /// Pure fail-stop links at t = 0 with probability `rate`, no node
    /// failures, no transients.
    pub fn fail_stop(rate: f64) -> Self {
        FaultSpec {
            link_fail_rate: rate,
            node_fail_rate: 0.0,
            transient_rate: 0.0,
            transient_window_us: 0.0,
            outage_us: 0.0,
        }
    }

    /// Whether this spec can only sample the empty plan.
    pub fn is_zero(&self) -> bool {
        self.link_fail_rate == 0.0 && self.node_fail_rate == 0.0 && self.transient_rate == 0.0
    }
}

/// A deterministic, time-sorted schedule of link-state transitions.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan (no faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Sample a plan for `mesh` from `spec`, consuming `rng`. Links and
    /// nodes are visited in id order and every draw depends only on
    /// `(mesh, spec, rng state)`, so equal inputs give equal plans.
    pub fn sample(mesh: &Mesh, spec: &FaultSpec, rng: &mut SimRng) -> Self {
        let mut plan = FaultPlan::new();
        if spec.is_zero() {
            return plan;
        }
        for ch in mesh.channels() {
            if rng.chance(spec.link_fail_rate) {
                plan.push(FaultEvent {
                    at: SimTime::ZERO,
                    kind: FaultKind::LinkDown(ch),
                });
            }
        }
        for n in mesh.nodes() {
            if rng.chance(spec.node_fail_rate) {
                for dim in 0..mesh.ndims() {
                    for sign in [Sign::Minus, Sign::Plus] {
                        let Some(out) = mesh.channel(n, dim, sign) else {
                            continue;
                        };
                        plan.push(FaultEvent {
                            at: SimTime::ZERO,
                            kind: FaultKind::LinkDown(out),
                        });
                        // The reverse direction of the same physical link.
                        let nb = mesh.channel_endpoints(out).1;
                        let back = match sign {
                            Sign::Plus => Sign::Minus,
                            Sign::Minus => Sign::Plus,
                        };
                        let inc = mesh.channel(nb, dim, back).expect("reverse channel");
                        plan.push(FaultEvent {
                            at: SimTime::ZERO,
                            kind: FaultKind::LinkDown(inc),
                        });
                    }
                }
            }
        }
        for ch in mesh.channels() {
            if rng.chance(spec.transient_rate) {
                let start = SimTime::from_us(rng.unit() * spec.transient_window_us.max(0.0));
                plan.push(FaultEvent {
                    at: start,
                    kind: FaultKind::LinkDown(ch),
                });
                plan.push(FaultEvent {
                    at: start + wormcast_sim::SimDuration::from_us(spec.outage_us.max(0.0)),
                    kind: FaultKind::LinkUp(ch),
                });
            }
        }
        plan.events.sort_by_key(|e| e.at); // stable: ties keep push order
        plan
    }

    /// Append one event (kept sorted only if callers push in time order;
    /// [`FaultPlan::sample`] sorts before returning).
    pub fn push(&mut self, ev: FaultEvent) {
        self.events.push(ev);
    }

    /// The scheduled events, in time order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Channels that are down at t = 0 (before any message moves) and never
    /// restored — the set a plan-time re-router must avoid.
    pub fn dead_at_start(&self) -> Vec<ChannelId> {
        let mut down: Vec<ChannelId> = Vec::new();
        for e in &self.events {
            match e.kind {
                FaultKind::LinkDown(ch) if e.at == SimTime::ZERO => down.push(ch),
                FaultKind::LinkUp(ch) => down.retain(|&c| c != ch),
                _ => {}
            }
        }
        down.sort_by_key(|c| c.0);
        down.dedup();
        down
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_spec_samples_empty_plan() {
        let mesh = Mesh::cube(4);
        let mut rng = SimRng::new(7);
        let plan = FaultPlan::sample(&mesh, &FaultSpec::fail_stop(0.0), &mut rng);
        assert!(plan.is_empty());
        assert!(plan.dead_at_start().is_empty());
    }

    #[test]
    fn sampling_is_deterministic() {
        let mesh = Mesh::cube(4);
        let spec = FaultSpec {
            link_fail_rate: 0.05,
            node_fail_rate: 0.01,
            transient_rate: 0.03,
            transient_window_us: 10.0,
            outage_us: 2.0,
        };
        let a = FaultPlan::sample(&mesh, &spec, &mut SimRng::new(42));
        let b = FaultPlan::sample(&mesh, &spec, &mut SimRng::new(42));
        assert_eq!(a.events(), b.events());
        assert!(!a.is_empty(), "rates this high fault something on 64 nodes");
    }

    /// FNV-1a over every event's time, kind and channel, in plan order.
    fn plan_digest(plan: &FaultPlan) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for e in plan.events() {
            let (tag, ch) = match e.kind {
                FaultKind::LinkDown(c) => (0u64, c.0),
                FaultKind::LinkUp(c) => (1u64, c.0),
            };
            for word in [e.at.as_ps(), tag, u64::from(ch)] {
                for byte in word.to_le_bytes() {
                    h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        h
    }

    /// Plans pinned across commits, as (events, digest) per seed: a change
    /// to which channels `Mesh::channels` yields, or in what order, shifts
    /// every later draw and breaks a digest here rather than only showing
    /// up as a diff in `results/faults.json`.
    #[test]
    fn sampled_plans_match_pinned_digests() {
        let mixed = FaultSpec {
            link_fail_rate: 0.05,
            node_fail_rate: 0.1,
            transient_rate: 0.2,
            transient_window_us: 40.0,
            outage_us: 10.0,
        };
        #[rustfmt::skip]
        let cases = [
            ([8u16, 8, 8], FaultSpec::fail_stop(0.05), [
                (132, 0xb87a_388f_7297_ec0c), (151, 0xabf5_dd2d_c673_fad2),
                (156, 0x6585_2124_a9fd_a169), (158, 0x3f9e_deff_1c85_f363),
            ]),
            ([5, 3, 2], mixed, [
                (101, 0xc520_02ef_d6f9_f193), (91, 0xef50_6aed_4c7f_35a2),
                (74, 0x0c7f_161f_fd46_e7a7), (74, 0x749b_f5ae_9fd2_13d1),
            ]),
            ([4, 1, 2], mixed, [
                (13, 0xb2a2_7f9a_e896_57fe), (14, 0xcea1_edcf_587b_7cf1),
                (12, 0x162b_7d05_b564_e99b), (12, 0x11f7_761e_e63f_0801),
            ]),
        ];
        for (dims, spec, pins) in cases {
            let mesh = Mesh::new(&dims);
            for (seed, pin) in [1u64, 2, 3, 2005].into_iter().zip(pins) {
                let plan = FaultPlan::sample(&mesh, &spec, &mut SimRng::new(seed));
                assert_eq!(
                    (plan.len(), plan_digest(&plan)),
                    pin,
                    "fault plan for {dims:?} seed {seed} moved"
                );
            }
        }
    }

    #[test]
    fn events_are_time_sorted_and_transients_recover() {
        let mesh = Mesh::cube(4);
        let spec = FaultSpec {
            link_fail_rate: 0.0,
            node_fail_rate: 0.0,
            transient_rate: 0.2,
            transient_window_us: 50.0,
            outage_us: 5.0,
        };
        let plan = FaultPlan::sample(&mesh, &spec, &mut SimRng::new(3));
        assert!(!plan.is_empty());
        for w in plan.events().windows(2) {
            assert!(w[0].at <= w[1].at, "events sorted by time");
        }
        // Transient-only plans leave nothing permanently dead from t = 0
        // unless an outage starts exactly at 0 and ends later; outages that
        // do start at 0 are matched by their LinkUp and filtered out.
        let downs = plan
            .events()
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::LinkDown(_)))
            .count();
        let ups = plan.len() - downs;
        assert_eq!(downs, ups, "every outage recovers");
    }

    #[test]
    fn node_failure_kills_both_directions() {
        let mesh = Mesh::cube(4);
        let spec = FaultSpec {
            link_fail_rate: 0.0,
            node_fail_rate: 1.0, // every node fails: all links die
            transient_rate: 0.0,
            transient_window_us: 0.0,
            outage_us: 0.0,
        };
        let plan = FaultPlan::sample(&mesh, &spec, &mut SimRng::new(1));
        let dead = plan.dead_at_start();
        let all: Vec<ChannelId> = mesh.channels().collect();
        assert_eq!(dead, all, "all-node failure downs every channel");
    }
}
