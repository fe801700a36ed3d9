//! The three simulation workloads: their seeded operation lists, the
//! untraced calls into the workload layer, and the traced mirrors of those
//! calls.
//!
//! A mirror repeats a driver loop from the same public calls the driver
//! makes, in the same order, with each call timed from here. The traced
//! run's outcome must equal the untraced one bit for bit (compared through
//! the outcome's `Debug` text, which prints every `f64` exactly), so a
//! mirror that drifts from its driver fails the run instead of silently
//! measuring something else.

use std::collections::HashMap;
use std::sync::Arc;

use wormcast_broadcast::{Algorithm, RoutingKind};
use wormcast_network::{
    FaultPlan, FaultSpec, MessageSpec, NetworkConfig, OpId, ReleaseMode, Route, Simulation,
};
use wormcast_routing::{dor_path, CodedPath};
use wormcast_sim::{DurationDist, Exponential, SimDuration, SimRng, SimTime};
use wormcast_stats::{summarize, BatchMeans, OnlineStats};
use wormcast_topology::{Mesh, NodeId, Topology};
use wormcast_workload::{
    degrade_schedule, routing_for, run_faulty_broadcast, run_mixed_traffic, run_single_broadcast,
    BroadcastOutcome, BroadcastTracker, FaultyOutcome, MixedConfig, MixedOutcome,
};

use crate::instrument::{CountingSink, Layer, Shared, SpanId, TimedRouting, Tracer};
use crate::plan::Gen;

/// Broadcast length, flits (the paper's L for Figs. 1–2 and the faults
/// sweep).
const LENGTH: u64 = 100;
/// Side of the scale-bcast cube: 10⁶ nodes.
const SCALE_SIDE: u16 = 100;
/// Offered loads of mixed-knee, messages/ms per node: AB's knee in the
/// saturation lab and the next point past it.
const MIXED_LOADS: [f64; 2] = [256.0, 320.0];
/// Messages offered by one mixed-knee point. The point stops generating
/// after this many arrivals and runs until every message is delivered, so
/// each pass offers the same work; the paper's batch-means quota would end
/// a point after a random amount of work, which at the knee varies by tens
/// of percent from one arrival stream to the next.
const MIXED_ARRIVALS: u64 = 3000;
/// Broadcasts per algorithm in one faults-5pct pass.
const FAULT_OPS_PER_ALG: usize = 200;
/// Fail-stop link rate of faults-5pct.
const FAULT_RATE: f64 = 0.05;

/// One operation: one simulation.
#[derive(Debug, Clone)]
pub enum Op {
    /// `run_single_broadcast` from `source`.
    Single { alg: Algorithm, source: NodeId },
    /// `run_mixed_traffic` at one load point.
    Mixed(MixedConfig),
    /// `run_faulty_broadcast` from `source`, faults drawn from a fresh
    /// `SimRng::new(fault_seed)`.
    Faulty {
        alg: Algorithm,
        source: NodeId,
        fault_seed: u64,
    },
}

/// A simulation workload: one mesh, one configuration, a list of distinct
/// operations.
pub struct Sims {
    mesh: Mesh,
    cfg: NetworkConfig,
    pub ops: Vec<Op>,
    faults: FaultSpec,
}

fn paper_cfg() -> NetworkConfig {
    NetworkConfig::builder()
        .startup_us(1.5)
        .build()
        .expect("Ts = 1.5 µs is a valid start-up latency")
}

/// A DB and an AB broadcast on the 100×100×100 mesh from seeded sources.
pub fn scale_bcast(seed: u64) -> Sims {
    let mesh = Mesh::cube(SCALE_SIDE);
    let mut g = Gen::new(seed, "scale-bcast/sources");
    let n = mesh.num_nodes() as u64;
    let ops = [Algorithm::Db, Algorithm::Ab]
        .into_iter()
        .map(|alg| Op::Single {
            alg,
            source: NodeId(g.below(n) as u32),
        })
        .collect();
    Sims {
        mesh,
        cfg: paper_cfg(),
        ops,
        faults: FaultSpec::fail_stop(0.0),
    }
}

/// The paper's §3.3 mixed traffic on 8×8×8, AB and QAB at and past AB's
/// knee, with the saturation lab's facility-queueing release. AB and QAB
/// share the arrival stream of each load (common random numbers).
pub fn mixed_knee(seed: u64) -> Sims {
    let mut g = Gen::new(seed, "mixed-knee/arrivals");
    let mut ops = Vec::new();
    for load in MIXED_LOADS {
        let s = g.next_u64();
        for alg in [Algorithm::Ab, Algorithm::Qab] {
            let mut mc = MixedConfig::paper(alg, load, s);
            mc.max_arrivals = MIXED_ARRIVALS;
            // A quota no run of this size can fill: the arrival budget ends
            // the point.
            mc.batches = MIXED_ARRIVALS as usize;
            ops.push(Op::Mixed(mc));
        }
    }
    Sims {
        mesh: Mesh::cube(8),
        cfg: paper_cfg().with_release(ReleaseMode::AfterTailCrossing),
        ops,
        faults: FaultSpec::fail_stop(0.0),
    }
}

/// Broadcasts of all five algorithms on 8×8×8 with 5% fail-stop links,
/// seeded sources and fault draws.
///
/// The watchdog is set here to the value `run_faulty_broadcast` would
/// choose for itself (64 worst-case message-passing steps), so the driver
/// keeps this configuration unchanged and the traced mirror can build the
/// same network from public calls alone.
pub fn faults_5pct(seed: u64) -> Sims {
    let mesh = Mesh::cube(8);
    let cfg = paper_cfg();
    let diameter: u64 = mesh.dims().iter().map(|&d| u64::from(d) - 1).sum();
    let step = cfg.startup + cfg.hop_time().times(2 * diameter) + cfg.body_time(LENGTH);
    let cfg = cfg.with_watchdog(step.times(64));
    let mut g = Gen::new(seed, "faults-5pct/ops");
    let n = mesh.num_nodes() as u64;
    let mut ops = Vec::new();
    for alg in Algorithm::ALL {
        for _ in 0..FAULT_OPS_PER_ALG {
            ops.push(Op::Faulty {
                alg,
                source: NodeId(g.below(n) as u32),
                fault_seed: g.next_u64(),
            });
        }
    }
    Sims {
        mesh,
        cfg,
        ops,
        faults: FaultSpec::fail_stop(FAULT_RATE),
    }
}

/// The mixed-knee output checks: the batch quota filled (the discarded
/// cold-start batch plus `batches` retained ones) or the run says it is
/// saturated; and every one of the offered messages was delivered.
fn check_mixed(mc: &MixedConfig, o: &MixedOutcome) -> Result<(), String> {
    let quota = (mc.batches as u64 + 1) * mc.batch_size;
    let what = format!("{} at {}", mc.algorithm, mc.load_per_node_per_ms);
    if !o.saturated && o.broadcasts_completed < quota {
        return Err(format!(
            "{what}: {} broadcasts, quota {quota}, not saturated",
            o.broadcasts_completed
        ));
    }
    let delivered = o.broadcasts_completed + o.unicasts_delivered;
    if delivered != mc.max_arrivals {
        return Err(format!(
            "{what}: {delivered} of {} messages delivered",
            mc.max_arrivals
        ));
    }
    Ok(())
}

/// The faults-5pct output check: every expected destination is accounted
/// for, as received or undelivered.
fn check_faulty(o: &FaultyOutcome) -> Result<(), String> {
    if o.received + o.undelivered == o.expected {
        Ok(())
    } else {
        Err(format!(
            "{} from {}: received {} + undelivered {} != expected {}",
            o.algorithm, o.source.0, o.received, o.undelivered, o.expected
        ))
    }
}

impl Sims {
    /// Run `op` through the workload layer's entry point; returns the
    /// outcome digest.
    pub fn run_plain(&self, op: &Op) -> Result<String, String> {
        match op {
            Op::Single { alg, source } => {
                // Panics unless every scheduled destination is reached;
                // `coverage` checks that the schedule names all N − 1.
                let o = run_single_broadcast(&self.mesh, self.cfg, *alg, *source, LENGTH);
                Ok(format!("{o:?}"))
            }
            Op::Mixed(mc) => {
                let o = run_mixed_traffic(&self.mesh, self.cfg, mc);
                check_mixed(mc, &o)?;
                Ok(format!("{o:?}"))
            }
            Op::Faulty {
                alg,
                source,
                fault_seed,
            } => {
                let mut rng = SimRng::new(*fault_seed);
                let o = run_faulty_broadcast(
                    &self.mesh,
                    self.cfg,
                    *alg,
                    *source,
                    LENGTH,
                    &self.faults,
                    &mut rng,
                );
                check_faulty(&o)?;
                Ok(format!("{o:?}"))
            }
        }
    }

    /// The scale-bcast coverage check, run outside the timed passes: the
    /// schedule of a single-source broadcast names all N − 1 destinations.
    pub fn coverage(&self, op: &Op) -> Result<(), String> {
        let Op::Single { alg, source } = op else {
            return Ok(());
        };
        let schedule = alg.schedule(&self.mesh, *source);
        let expected = BroadcastTracker::new(&self.mesh, &schedule, OpId(0), LENGTH).expected();
        let want = self.mesh.num_nodes() - 1;
        if expected == want {
            Ok(())
        } else {
            Err(format!(
                "{alg} from {}: schedule reaches {expected} of {want} destinations",
                source.0
            ))
        }
    }

    /// A network for `alg` built the way `network_for` builds it, with the
    /// routing decorator and the counting sink installed.
    fn instrumented(&self, alg: Algorithm, shared: &Arc<Shared>) -> Simulation {
        let rf = TimedRouting::new(routing_for(alg, &self.mesh), shared.clone());
        let mut net = Simulation::over(
            self.mesh.clone(),
            self.cfg.with_ports(alg.ports()),
            Box::new(rf),
        );
        net.add_sink(Box::new(CountingSink(shared.clone())));
        net
    }

    /// Run `op` as a traced mirror of its driver; returns the outcome
    /// digest.
    pub fn run_traced(&self, op: &Op, tr: &mut Tracer, span: SpanId) -> Result<String, String> {
        let digest = match op {
            Op::Single { alg, source } => {
                let o = self.single_traced(*alg, *source, tr, span)?;
                format!("{o:?}")
            }
            Op::Mixed(mc) => {
                let o = self.mixed_traced(mc, tr, span);
                check_mixed(mc, &o)?;
                format!("{o:?}")
            }
            Op::Faulty {
                alg,
                source,
                fault_seed,
            } => {
                let o = self.faulty_traced(*alg, *source, *fault_seed, tr, span);
                check_faulty(&o)?;
                format!("{o:?}")
            }
        };
        tr.absorb_shared();
        Ok(digest)
    }

    /// Mirror of `run_single_broadcast`.
    fn single_traced(
        &self,
        alg: Algorithm,
        source: NodeId,
        tr: &mut Tracer,
        span: SpanId,
    ) -> Result<BroadcastOutcome, String> {
        let mesh = &self.mesh;
        let shared = tr.shared.clone();
        let schedule = tr.call(Layer::Schedule, span, || alg.schedule(mesh, source));
        let mut net = tr.call(Layer::NetworkNew, span, || self.instrumented(alg, &shared));
        let mut tracker = tr.call(Layer::Tracker, span, || {
            BroadcastTracker::new(mesh, &schedule, OpId(0), LENGTH)
        });
        let specs = tr.call(Layer::Tracker, span, || tracker.start(SimTime::ZERO));
        for spec in specs {
            tr.call(Layer::Inject, span, || net.inject_at(SimTime::ZERO, spec));
        }
        while !tracker.is_complete() {
            let d = tr
                .call(Layer::Step, span, || net.next_delivery())
                .ok_or("network idle before broadcast completion")?;
            let now = d.delivered_at;
            let follow = tr.call(Layer::Tracker, span, || tracker.on_delivery(&d));
            for spec in follow {
                tr.call(Layer::Inject, span, || net.inject_at(now, spec));
            }
        }
        let want = mesh.num_nodes() - 1;
        if tracker.received() != want {
            return Err(format!(
                "{alg} from {}: reached {} of {want} destinations",
                source.0,
                tracker.received()
            ));
        }
        let lats = tracker.latencies_us();
        let s = summarize(&lats);
        tr.absorb_engine(&net.engine_stats());
        Ok(BroadcastOutcome {
            algorithm: alg.name().to_string(),
            source,
            network_latency_us: tracker.network_latency_us(),
            mean_latency_us: s.mean(),
            sd_latency_us: s.std_dev(),
            cv: s.cv(),
        })
    }

    /// Mirror of `run_mixed_traffic` (unobserved path of
    /// `run_mixed_traffic_observed`).
    fn mixed_traced(&self, mc: &MixedConfig, tr: &mut Tracer, span: SpanId) -> MixedOutcome {
        let mesh = &self.mesh;
        let root = SimRng::new(mc.seed);
        let shared = tr.shared.clone();
        let mut net = tr.call(Layer::NetworkNew, span, || {
            self.instrumented(mc.algorithm, &shared)
        });
        let adaptive_unicast = matches!(
            mc.algorithm.routing(),
            RoutingKind::WestFirstAdaptive | RoutingKind::QueueAdaptive
        );
        let mut arrivals_rng = root.substream("arrivals");
        let mut source_rng = root.substream("sources");
        let mut dest_rng = root.substream("destinations");
        let mut kind_rng = root.substream("kinds");
        let agg_rate = mc.load_per_node_per_ms * mesh.num_nodes() as f64;
        let interarrival = Exponential::with_rate_per_ms(agg_rate);
        let mut batch = BatchMeans::new(mc.batch_size, 1);
        let mut unicast_stats = OnlineStats::new();
        let mut trackers: HashMap<OpId, BroadcastTracker> = HashMap::new();
        let mut bcast_started: HashMap<OpId, SimTime> = HashMap::new();
        let mut broadcasts_completed = 0u64;
        let mut unicasts_delivered = 0u64;
        let mut next_op = 0u64;
        let horizon = SimTime::from_ms(mc.max_sim_ms);
        let mut next_arrival = SimTime::ZERO + interarrival.sample(&mut arrivals_rng);
        let mut deliveries: Vec<wormcast_network::Delivery> = Vec::new();
        loop {
            let filled = batch.completed_batches() >= mc.batches;
            if filled || net.now() > horizon {
                break;
            }
            while !filled
                && next_op < mc.max_arrivals
                && next_arrival <= horizon
                && tr
                    .call(Layer::Step, span, || net.next_event_time())
                    .is_none_or(|h| next_arrival <= h)
            {
                let at = next_arrival;
                let src = NodeId(source_rng.index(mesh.num_nodes()) as u32);
                let op = OpId(next_op);
                next_op += 1;
                if kind_rng.chance(mc.broadcast_fraction) {
                    let schedule =
                        tr.call(Layer::Schedule, span, || mc.algorithm.schedule(mesh, src));
                    let mut tracker = tr.call(Layer::Tracker, span, || {
                        BroadcastTracker::new(mesh, &schedule, op, mc.length)
                    });
                    let specs = tr.call(Layer::Tracker, span, || tracker.start(at));
                    for spec in specs {
                        tr.call(Layer::Inject, span, || net.inject_at(at, spec));
                    }
                    bcast_started.insert(op, at);
                    trackers.insert(op, tracker);
                } else {
                    let dst = mc.pattern.pick(mesh, src, &mut dest_rng);
                    let route = if adaptive_unicast {
                        Route::Adaptive { dst }
                    } else {
                        Route::Fixed(CodedPath::unicast(mesh, dor_path(mesh, src, dst)))
                    };
                    let spec = MessageSpec {
                        src,
                        route,
                        length: mc.length,
                        op,
                        tag: 0,
                        charge_startup: true,
                    };
                    tr.call(Layer::Inject, span, || net.inject_at(at, spec));
                }
                next_arrival += interarrival.sample(&mut arrivals_rng);
            }
            if !tr.call(Layer::Step, span, || net.step()) {
                break;
            }
            deliveries.clear();
            tr.call(Layer::Step, span, || {
                net.drain_deliveries_into(&mut deliveries)
            });
            for d in &deliveries {
                if let Some(tracker) = trackers.get_mut(&d.op) {
                    let follow = tr.call(Layer::Tracker, span, || tracker.on_delivery(d));
                    for spec in follow {
                        tr.call(Layer::Inject, span, || net.inject_at(d.delivered_at, spec));
                    }
                    if tracker.is_complete() {
                        let t0 = bcast_started[&d.op];
                        batch.push(d.delivered_at.since(t0).as_ms());
                        broadcasts_completed += 1;
                        trackers.remove(&d.op);
                        bcast_started.remove(&d.op);
                    }
                } else {
                    unicast_stats.push(d.latency().as_ms());
                    unicasts_delivered += 1;
                }
            }
        }
        let saturated = batch.completed_batches() < mc.batches;
        let (mean, hw) = match batch.estimate() {
            Some(e) => (e.mean, e.half_width_95),
            None => {
                let means = batch.means();
                let m = if means.is_empty() {
                    f64::NAN
                } else {
                    means.iter().sum::<f64>() / means.len() as f64
                };
                (m, f64::NAN)
            }
        };
        let sim_ms = net.now().as_ms().max(1e-9);
        tr.absorb_engine(&net.engine_stats());
        MixedOutcome {
            load_per_node_per_ms: mc.load_per_node_per_ms,
            mean_latency_ms: mean,
            ci_half_width_ms: hw,
            mean_unicast_latency_ms: unicast_stats.mean(),
            throughput_msgs_per_ms: (broadcasts_completed + unicasts_delivered) as f64 / sim_ms,
            saturated,
            broadcasts_completed,
            unicasts_delivered,
        }
    }

    /// Mirror of `run_faulty_broadcast`. The configuration already carries
    /// a watchdog, so the driver's default-watchdog branch keeps it as is.
    fn faulty_traced(
        &self,
        alg: Algorithm,
        source: NodeId,
        fault_seed: u64,
        tr: &mut Tracer,
        span: SpanId,
    ) -> FaultyOutcome {
        let mesh = &self.mesh;
        let mut rng = SimRng::new(fault_seed);
        let plan = tr.call(Layer::FaultSample, span, || {
            FaultPlan::sample(mesh, &self.faults, &mut rng)
        });
        let schedule = tr.call(Layer::Schedule, span, || alg.schedule(mesh, source));
        let dead = plan.dead_at_start();
        let degraded = tr.call(Layer::Degrade, span, || {
            degrade_schedule(mesh, alg, &schedule, &dead)
        });
        debug_assert_ne!(self.cfg.watchdog, SimDuration::ZERO);
        let shared = tr.shared.clone();
        let mut net = tr.call(Layer::NetworkNew, span, || {
            let mut net = self.instrumented(alg, &shared);
            net.schedule_faults(&plan);
            net
        });
        let mut tracker = tr.call(Layer::Tracker, span, || {
            BroadcastTracker::new(mesh, &degraded.schedule, OpId(0), LENGTH)
        });
        let specs = tr.call(Layer::Tracker, span, || tracker.start(SimTime::ZERO));
        for s in specs {
            tr.call(Layer::Inject, span, || net.inject_at(SimTime::ZERO, s));
        }
        while !tracker.is_complete() {
            let Some(d) = tr.call(Layer::Step, span, || net.next_delivery()) else {
                break;
            };
            let now = d.delivered_at;
            let follow = tr.call(Layer::Tracker, span, || tracker.on_delivery(&d));
            for s in follow {
                tr.call(Layer::Inject, span, || net.inject_at(now, s));
            }
        }
        tr.call(Layer::Step, span, || net.run_until_idle());
        let lats = tracker.delivered_latencies_us();
        let s = summarize(&lats);
        let c = net.counters();
        tr.absorb_engine(&net.engine_stats());
        FaultyOutcome {
            algorithm: alg.name().to_string(),
            source,
            delivery_ratio: tracker.delivery_ratio(),
            received: tracker.received() as u64,
            expected: tracker.expected() as u64,
            undelivered: (tracker.expected() - tracker.received()) as u64,
            stalled: c.stalled,
            reroutes: degraded.reroutes + c.reroutes,
            link_failures: c.link_failures,
            mean_delivered_latency_us: s.mean(),
            max_delivered_latency_us: if s.count() == 0 { 0.0 } else { s.max() },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormcast_network::{Counters, Delivery, EngineStats, TraceRecord};
    use wormcast_workload::network_for;

    fn small(ops: Vec<Op>, cfg: NetworkConfig, faults: FaultSpec) -> Sims {
        Sims {
            mesh: Mesh::new(&[4, 4, 3]),
            cfg,
            ops,
            faults,
        }
    }

    const RELEASES: [ReleaseMode; 2] = [ReleaseMode::PathHolding, ReleaseMode::AfterTailCrossing];

    /// Three overlapping broadcasts plus adaptive or DOR unicasts on one
    /// network, run to idle; everything the engine exposes afterwards.
    fn contended_run(
        net: &mut Simulation,
        mesh: &Mesh,
        alg: Algorithm,
    ) -> (Vec<TraceRecord>, Vec<Delivery>, Counters, EngineStats) {
        net.enable_trace(1 << 20);
        let mut trackers: Vec<BroadcastTracker> = [0u32, 17, 40]
            .iter()
            .enumerate()
            .map(|(k, &src)| {
                let schedule = alg.schedule(mesh, NodeId(src));
                BroadcastTracker::new(mesh, &schedule, OpId(k as u64), 16)
            })
            .collect();
        for t in &mut trackers {
            for spec in t.start(SimTime::ZERO) {
                net.inject_at(SimTime::ZERO, spec);
            }
        }
        let adaptive = alg.routing() != RoutingKind::DimensionOrdered;
        for k in 0..12u32 {
            let (src, dst) = (NodeId(k * 3 % 48), NodeId((k * 7 + 5) % 48));
            if src == dst {
                continue;
            }
            let route = if adaptive {
                Route::Adaptive { dst }
            } else {
                Route::Fixed(CodedPath::unicast(mesh, dor_path(mesh, src, dst)))
            };
            let spec = MessageSpec {
                src,
                route,
                length: 16,
                op: OpId(100 + u64::from(k)),
                tag: 0,
                charge_startup: true,
            };
            net.inject_at(SimTime::ZERO, spec);
        }
        let mut seen = Vec::new();
        while let Some(d) = net.next_delivery() {
            if let Some(t) = trackers.get_mut(d.op.0 as usize) {
                for spec in t.on_delivery(&d) {
                    net.inject_at(d.delivered_at, spec);
                }
            }
            seen.push(d);
        }
        let trace = net.trace().records().copied().collect();
        (trace, seen, net.counters(), net.engine_stats())
    }

    #[test]
    fn instruments_leave_physics_unchanged() {
        for release in RELEASES {
            let cfg = paper_cfg().with_release(release);
            let w = small(Vec::new(), cfg, FaultSpec::fail_stop(0.0));
            for alg in Algorithm::ALL {
                let mut plain = network_for(alg, w.mesh.clone(), cfg);
                let shared = Arc::new(Shared::default());
                let mut traced = w.instrumented(alg, &shared);
                let a = contended_run(&mut plain, &w.mesh, alg);
                let b = contended_run(&mut traced, &w.mesh, alg);
                assert!(!a.0.is_empty() && !a.1.is_empty());
                assert_eq!(a, b, "{alg} {release:?}: instruments changed the run");
                let mut tr = Tracer::new();
                tr.shared = shared;
                tr.absorb_shared();
                assert!(tr.pass.header_hops > 0, "{alg}: counting sink saw no hops");
                assert_eq!(tr.pass.deliveries, a.2.deliveries, "{alg}: sink deliveries");
                if alg.routing() != RoutingKind::DimensionOrdered {
                    assert!(tr.pass.routing_calls > 0, "{alg}: decorator saw no calls");
                }
            }
        }
    }

    /// Every traced mirror reproduces its driver's outcome bit for bit.
    fn assert_mirrors(w: &Sims) {
        let mut tr = Tracer::new();
        for op in &w.ops {
            let span = tr.open("op", None, 0);
            let traced = w.run_traced(op, &mut tr, span).expect("traced run");
            assert_eq!(w.run_plain(op).expect("plain run"), traced, "{op:?}");
        }
    }

    #[test]
    fn mirrors_reproduce_their_drivers() {
        let sources = [NodeId(0), NodeId(29)];
        for release in RELEASES {
            let cfg = paper_cfg().with_release(release);
            let mut single = Vec::new();
            let mut mixed = Vec::new();
            let mut faulty = Vec::new();
            for alg in Algorithm::ALL {
                for source in sources {
                    single.push(Op::Single { alg, source });
                    faulty.push(Op::Faulty {
                        alg,
                        source,
                        fault_seed: u64::from(source.0) + 1,
                    });
                }
                let mut mc = MixedConfig::paper(alg, 200.0, 5);
                mc.max_arrivals = 400;
                mc.batches = 400;
                mixed.push(Op::Mixed(mc));
            }
            assert_mirrors(&small(single, cfg, FaultSpec::fail_stop(0.0)));
            assert_mirrors(&small(mixed, cfg, FaultSpec::fail_stop(0.0)));
            let f = faults_5pct(1);
            let mut w = small(
                faulty,
                f.cfg.with_release(release),
                FaultSpec::fail_stop(0.1),
            );
            w.mesh = Mesh::cube(4);
            assert_mirrors(&w);
        }
    }

    #[test]
    fn one_seed_one_operation_list() {
        for make in [scale_bcast, mixed_knee, faults_5pct] {
            let a = format!("{:?}", make(7).ops);
            assert_eq!(a, format!("{:?}", make(7).ops));
            assert_ne!(a, format!("{:?}", make(8).ops));
        }
    }
}
