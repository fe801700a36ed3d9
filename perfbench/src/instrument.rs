//! The instruments of the traced run, all outside the library: a routing
//! decorator, a counting metrics sink, per-layer time accumulators and the
//! span log.
//!
//! Hot calls (engine steps, injections, routing decisions, tracker
//! callbacks) are only accumulated as (calls, nanoseconds) per layer; the
//! coarser calls additionally leave one span each, so a slow operation can
//! be taken apart after the run from the spans file.

use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use wormcast_network::{MessageId, MetricsSink};
use wormcast_routing::{RoutingFunction, SelectPolicy};
use wormcast_sim::SimTime;
use wormcast_topology::{ChannelId, Mesh, NodeId, Sign};

/// A counter written by one thread at a time (the engine that owns the
/// instrument) and read by the driver after the operation. A plain load and
/// store instead of `fetch_add` keeps the increment free of a locked
/// instruction; `Relaxed` suffices because the value publishes no other
/// data.
#[derive(Debug, Default)]
struct Tally(AtomicU64);

impl Tally {
    fn add(&self, v: u64) {
        self.0.store(self.0.load(Relaxed) + v, Relaxed);
    }

    fn raise_to(&self, v: u64) {
        if v > self.0.load(Relaxed) {
            self.0.store(v, Relaxed);
        }
    }

    /// The value, resetting the counter to zero.
    fn take(&self) -> u64 {
        self.0.swap(0, Relaxed)
    }
}

/// State shared between the driver and the instruments it installs inside
/// a simulation.
#[derive(Debug, Default)]
pub struct Shared {
    routing_calls: Tally,
    routing_candidates: Tally,
    routing_ns: Tally,
    header_hops: Tally,
    channel_grants: Tally,
    channel_releases: Tally,
    channel_waits: Tally,
    wait_queue_sum: Tally,
    wait_queue_max: Tally,
    deliveries: Tally,
}

/// Routing decorator: forwards every call to the wrapped routing function
/// and counts and times `candidates`.
pub struct TimedRouting {
    inner: Box<dyn RoutingFunction>,
    shared: Arc<Shared>,
}

impl TimedRouting {
    /// Wrap `inner`, reporting into `shared`.
    pub fn new(inner: Box<dyn RoutingFunction>, shared: Arc<Shared>) -> Self {
        TimedRouting { inner, shared }
    }
}

impl RoutingFunction for TimedRouting {
    fn candidates(
        &self,
        topo: &Mesh,
        src: NodeId,
        cur: NodeId,
        prev: Option<(usize, Sign)>,
        dst: NodeId,
    ) -> Vec<ChannelId> {
        let t = Instant::now();
        let c = self.inner.candidates(topo, src, cur, prev, dst);
        self.shared.routing_ns.add(t.elapsed().as_nanos() as u64);
        self.shared.routing_calls.add(1);
        self.shared.routing_candidates.add(c.len() as u64);
        c
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn select_policy(&self) -> SelectPolicy {
        self.inner.select_policy()
    }
}

/// Metrics sink counting the channel-arena events. It is not timed: each
/// callback is a few integer stores, cheaper than the clock reads that
/// would measure it, so its cost stays inside `network.step_s`.
pub struct CountingSink(pub Arc<Shared>);

impl MetricsSink for CountingSink {
    fn on_header_hop(&mut self, _now: SimTime, _m: MessageId, _at: NodeId, _ch: ChannelId) {
        self.0.header_hops.add(1);
    }
    fn on_channel_wait(&mut self, _now: SimTime, _m: MessageId, _ch: ChannelId, queue_len: usize) {
        self.0.channel_waits.add(1);
        self.0.wait_queue_sum.add(queue_len as u64);
        self.0.wait_queue_max.raise_to(queue_len as u64);
    }
    fn on_channel_grant(&mut self, _now: SimTime, _m: MessageId, _ch: ChannelId) {
        self.0.channel_grants.add(1);
    }
    fn on_channel_release(&mut self, _now: SimTime, _ch: ChannelId) {
        self.0.channel_releases.add(1);
    }
    fn on_deliver(&mut self, _now: SimTime, _m: MessageId, _node: NodeId, _flits: u64) {
        self.0.deliveries.add(1);
    }
}

/// The layer calls the traced run times, each accumulated as (calls, ns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `Algorithm::schedule` (core).
    Schedule,
    /// `Simulation::over` (network).
    NetworkNew,
    /// `inject_at` (network).
    Inject,
    /// Calls into the event loop: `step`, `next_delivery`,
    /// `next_event_time`, `drain_deliveries_into`, `run_until_idle`
    /// (network, including the routing calls made inside them).
    Step,
    /// `BroadcastTracker::new` / `start` / `on_delivery` (workload).
    Tracker,
    /// `degrade_schedule` (workload).
    Degrade,
    /// `FaultPlan::sample` (network::fault).
    FaultSample,
    /// `ScenarioRequest::from_json` (simcheck).
    Decode,
    /// `ScenarioRequest::config_hash` (simcheck).
    Hash,
    /// `measure_request` (simcheck).
    Measure,
    /// `Server::respond` (serve).
    Respond,
    /// `Response::render` (serve).
    Render,
}

const LAYERS: usize = 12;

impl Layer {
    pub const ALL: [Layer; LAYERS] = [
        Layer::Schedule,
        Layer::NetworkNew,
        Layer::Inject,
        Layer::Step,
        Layer::Tracker,
        Layer::Degrade,
        Layer::FaultSample,
        Layer::Decode,
        Layer::Hash,
        Layer::Measure,
        Layer::Respond,
        Layer::Render,
    ];

    fn name(self) -> &'static str {
        match self {
            Layer::Schedule => "core.schedule",
            Layer::NetworkNew => "network.new",
            Layer::Inject => "network.inject",
            Layer::Step => "network.step",
            Layer::Tracker => "workload.tracker",
            Layer::Degrade => "workload.degrade",
            Layer::FaultSample => "network.fault_sample",
            Layer::Decode => "simcheck.decode",
            Layer::Hash => "simcheck.hash",
            Layer::Measure => "simcheck.measure",
            Layer::Respond => "serve.respond",
            Layer::Render => "serve.render",
        }
    }

    /// Hot layers are accumulated only; the others also leave a span.
    fn is_hot(self) -> bool {
        matches!(
            self,
            Layer::Inject | Layer::Step | Layer::Tracker | Layer::Hash | Layer::Render
        )
    }
}

/// Calls and nanoseconds spent in one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Acc {
    pub calls: u64,
    pub ns: u64,
}

/// The host cost of timing one call, nanoseconds (see
/// [`Tracer::calibrate`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct ClockCost {
    pub inside_ns: f64,
    pub outside_ns: f64,
}

/// One recorded span; times are nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
    op: u64,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

/// Per-pass totals of the traced run. Counts are deterministic functions of
/// the operation list; nanosecond fields are host time.
#[derive(Debug, Clone, Default)]
pub struct PassTotals {
    pub layers: [Acc; LAYERS],
    pub op_ns: u64,
    pub routing_calls: u64,
    pub routing_candidates: u64,
    pub routing_ns: u64,
    pub header_hops: u64,
    pub channel_grants: u64,
    pub channel_releases: u64,
    pub channel_waits: u64,
    pub wait_queue_sum: u64,
    pub wait_queue_max: u64,
    pub deliveries: u64,
    pub arena_msgs_highwater: u64,
    pub events: u64,
    pub bucket_scans: u64,
    pub watchdog_arms: u64,
    pub reroutes: u64,
    pub stalls: u64,
    pub serve_requests: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub coalesced: u64,
    pub error_frames: u64,
    pub frame_bytes: u64,
}

impl PassTotals {
    /// The layer accumulator for `l`.
    pub fn layer(&self, l: Layer) -> Acc {
        self.layers[l as usize]
    }

    /// The deterministic part, for the repeat check: every count, no time.
    pub fn counts(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.layers.iter().map(|a| a.calls).collect();
        v.extend([
            self.routing_calls,
            self.routing_candidates,
            self.header_hops,
            self.channel_grants,
            self.channel_releases,
            self.channel_waits,
            self.wait_queue_sum,
            self.wait_queue_max,
            self.deliveries,
            self.arena_msgs_highwater,
            self.events,
            self.bucket_scans,
            self.watchdog_arms,
            self.reroutes,
            self.stalls,
            self.serve_requests,
            self.cache_hits,
            self.cache_misses,
            self.coalesced,
            self.error_frames,
            self.frame_bytes,
        ]);
        v
    }
}

/// The traced run's recorder: layer accumulators for the current pass plus
/// the span log of the whole run, kept in memory until [`Tracer::write`].
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// Totals of the pass in progress.
    pub pass: PassTotals,
    /// State shared with the instruments inside the current simulation.
    pub shared: Arc<Shared>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            pass: PassTotals::default(),
            shared: Arc::new(Shared::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span that closes with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, op: u64) -> SpanId {
        let start = self.now_ns();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: parent.map(|p| p.0),
            op,
        });
        SpanId(self.spans.len() - 1)
    }

    /// Close `id`, returning its duration in nanoseconds.
    pub fn close(&mut self, id: SpanId) -> u64 {
        let end = self.now_ns();
        let s = &mut self.spans[id.0];
        s.end = end;
        end - s.start
    }

    /// Run `f` as one call into `layer` on behalf of the span `parent`.
    pub fn call<R>(&mut self, layer: Layer, parent: SpanId, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        let ns = t.elapsed().as_nanos() as u64;
        let acc = &mut self.pass.layers[layer as usize];
        acc.calls += 1;
        acc.ns += ns;
        if !layer.is_hot() {
            let end = self.now_ns();
            let op = self.spans[parent.0].op;
            self.spans.push(Span {
                name: layer.name(),
                start: end.saturating_sub(ns),
                end,
                parent: Some(parent.0),
                op,
            });
        }
        r
    }

    /// Measure what timing one call costs on this host, so the per-layer
    /// split can take it back out: `inside` is the part a layer's recorded
    /// time includes, `outside` the part that would otherwise land in the
    /// caller's (driver) time.
    pub fn calibrate(&mut self) -> ClockCost {
        const N: u32 = 200_000;
        let saved = self.take_pass();
        let span = self.open("calibrate", None, 0);
        let start = Instant::now();
        for _ in 0..N {
            self.call(Layer::Inject, span, || std::hint::black_box(()));
        }
        let wall = start.elapsed().as_nanos() as f64;
        self.close(span);
        let inside = self.pass.layer(Layer::Inject).ns as f64;
        self.pass = saved;
        ClockCost {
            inside_ns: inside / f64::from(N),
            outside_ns: (wall - inside).max(0.0) / f64::from(N),
        }
    }

    /// Fold what the in-simulation instruments recorded into the pass
    /// totals and reset them for the next simulation.
    pub fn absorb_shared(&mut self) {
        let s = &self.shared;
        let p = &mut self.pass;
        p.routing_calls += s.routing_calls.take();
        p.routing_candidates += s.routing_candidates.take();
        p.routing_ns += s.routing_ns.take();
        p.header_hops += s.header_hops.take();
        p.channel_grants += s.channel_grants.take();
        p.channel_releases += s.channel_releases.take();
        p.channel_waits += s.channel_waits.take();
        p.wait_queue_sum += s.wait_queue_sum.take();
        p.wait_queue_max = p.wait_queue_max.max(s.wait_queue_max.take());
        p.deliveries += s.deliveries.take();
    }

    /// Fold one simulation's engine statistics into the pass totals.
    pub fn absorb_engine(&mut self, e: &wormcast_network::EngineStats) {
        let p = &mut self.pass;
        p.arena_msgs_highwater = p.arena_msgs_highwater.max(e.arena_msgs_highwater);
        p.events += e.wheel_events_scheduled;
        p.bucket_scans += e.wheel_bucket_scans;
        p.watchdog_arms += e.watchdog_arms;
        p.reroutes += e.reroutes;
        p.stalls += e.stalls;
    }

    /// Finish the pass in progress and start a fresh one.
    pub fn take_pass(&mut self) -> PassTotals {
        std::mem::take(&mut self.pass)
    }

    /// Write every span as one NDJSON line.
    pub fn write(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start, s.end, s.op
            )?;
        }
        Ok(())
    }
}
