//! The schedule-generic discrete-event pipeline executor.
//!
//! Simulates `N` virtual workers, each running a pluggable
//! [`Schedule`] over its stage GPUs, synchronized through sharded
//! parameter servers under WSP:
//!
//! - **Scheduling conditions (Section 4)**: forward tasks execute in
//!   minibatch order, backward tasks execute in minibatch order, and
//!   tasks are served FIFO per GPU. How forwards and backwards
//!   interleave on a GPU is the schedule's decision: the paper's wave
//!   schedule ([`Schedule::HetPipeWave`]) dispatches ready tasks in
//!   dependency-arrival order with the last stage fused; fill-drain /
//!   1F1B / depth-expanded interleaved execute their per-stage
//!   [`ScheduleOp`] streams in strict stream order; and the composite
//!   interleaved schedule executes one merged per-GPU [`GpuStream`]
//!   per physical GPU (`GpuStreamOrder`), so the *schedule* — not
//!   arrival order — decides how co-located chunks share the GPU
//!   timeline, exactly as Megatron-LM orders its interleaved chunk
//!   groups.
//! - **Wave pushes (Section 5)**: when the last minibatch of wave `c`
//!   completes, the VW pushes one *aggregated* update (its full
//!   parameter footprint, once — not per minibatch) to the shards. In
//!   stream-order schedules this is the explicit
//!   [`ScheduleOp::Push`] op; the wave schedule triggers it on
//!   completion count.
//! - **D-bounded pulls**: after pushing wave `c`, the VW requests global
//!   weights covering wave `c − D` and waits (while continuing to run
//!   already-admissible minibatches) until every VW has pushed that
//!   wave. The injection gate is [`WspParams::required_wave`] for the
//!   wave schedule and the explicit [`ScheduleOp::PullGate`] op for
//!   stream-order schedules. Consecutive waves' push transfers run
//!   concurrently (per-wave chunk counters), contending on the NIC
//!   timelines rather than being serialized behind one another. The
//!   pull-serve scan over every VW's push clock, run inside this one
//!   event loop, is the only cross-VW coupling in the simulation —
//!   the PS push→gate edge that `hetpipe-verify`'s isolation pass
//!   certifies as the sole cross-VW dependency of the committed
//!   schedules.
//! - **Enforced activation windows**: each stage's declared peak
//!   activation occupancy ([`PipelineSchedule::max_in_flight`] — the
//!   same number the memory model charges and the partitioner
//!   certifies against) is enforced at dispatch time. Arrival-FIFO
//!   stages gate forward dispatch on the window (deferring arrivals
//!   until a backward releases a slot); stream-order stages respect it
//!   structurally, and both paths keep occupancy books that are
//!   asserted against the declaration. `crate::audit` measures the
//!   realized peaks from the span trace as the first-class
//!   measured ≤ declared invariant.
//! - **Activation recomputation**: under
//!   [`RecomputePolicy::BoundaryOnly`], every non-fused backward is
//!   preceded by a stage-local forward re-run (an explicit
//!   [`SpanTag::Recompute`] task) that rematerializes activations from
//!   the stashed boundary input, matching the memory model's smaller
//!   per-minibatch stash.
//!
//! Hardware modelling: GPUs and per-node NICs are FIFO timeline
//! resources; an inter-node transfer occupies both endpoint NICs for its
//! duration (InfiniBand), while intra-node transfers use dedicated PCIe
//! lanes (latency + bandwidth, no contention). Parameter-server apply
//! time is not modelled (the paper does not model it either).
//!
//! The pre-refactor single-schedule executor is preserved verbatim in
//! [`crate::golden`]; a tier-1 golden test asserts that
//! [`Schedule::HetPipeWave`] through this executor reproduces its span
//! traces exactly.

use crate::pserver::{ShardMap, SyncChunk};
use crate::sync::WspParams;
use crate::vw::VirtualWorker;
use hetpipe_cluster::network::LinkKind;
use hetpipe_cluster::{Cluster, NodeId};
use hetpipe_des::{Engine, Resource, ResourceId, ResourcePool, SimTime, Span, Trace};
use hetpipe_model::profile::{pass_time_secs, Pass, STAGE_TASK_OVERHEAD_SECS};
use hetpipe_model::ModelGraph;
use hetpipe_schedule::{
    Dispatch, GpuOp, GpuStream, PipelineSchedule, RecomputePolicy, Schedule, ScheduleOp,
    ScheduleStream,
};
use std::collections::{BTreeMap, VecDeque};

/// What a recorded span represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanTag {
    /// A forward pass of `mb` on `(vw, stage)`.
    Forward { vw: u32, stage: u32, mb: u64 },
    /// A backward pass (or the fused forward+backward at the last
    /// stage).
    Backward { vw: u32, stage: u32, mb: u64 },
    /// A stage-local re-run of `mb`'s forward to rematerialize its
    /// activations directly before the backward
    /// ([`RecomputePolicy::BoundaryOnly`]).
    Recompute { vw: u32, stage: u32, mb: u64 },
    /// An activation (forward) or gradient (backward) transfer on a NIC.
    ActTransfer { vw: u32, stage: u32, backward: bool },
    /// A parameter push/pull chunk on a NIC.
    SyncTransfer { vw: u32, wave: u64, pull: bool },
}

impl SpanTag {
    /// A short label for trace exports (e.g. Chrome traces).
    pub fn label(&self) -> String {
        match self {
            SpanTag::Forward { vw, mb, .. } => format!("fwd vw{vw} mb{mb}"),
            SpanTag::Backward { vw, mb, .. } => format!("bwd vw{vw} mb{mb}"),
            SpanTag::Recompute { vw, mb, .. } => format!("recompute vw{vw} mb{mb}"),
            SpanTag::ActTransfer { vw, backward, .. } => {
                format!(
                    "{} vw{vw}",
                    if *backward { "grad xfer" } else { "act xfer" }
                )
            }
            SpanTag::SyncTransfer { vw, wave, pull } => {
                format!("{} vw{vw} w{wave}", if *pull { "pull" } else { "push" })
            }
        }
    }

    /// A category name for trace exports.
    pub fn category(&self) -> &'static str {
        match self {
            SpanTag::Forward { .. } => "forward",
            SpanTag::Backward { .. } => "backward",
            SpanTag::Recompute { .. } => "recompute",
            SpanTag::ActTransfer { .. } => "activation",
            SpanTag::SyncTransfer { .. } => "sync",
        }
    }
}

/// Executor inputs.
#[derive(Debug, Clone)]
pub struct ExecParams<'a> {
    /// The cluster the VWs live on.
    pub cluster: &'a Cluster,
    /// The model being trained.
    pub graph: &'a ModelGraph,
    /// The virtual workers (plans and stage devices resolved; for
    /// interleaved schedules these are *virtual* stages and `devices`
    /// repeats physical GPUs round-robin).
    pub vws: &'a [VirtualWorker],
    /// WSP parameters (`Nm`, `D`).
    pub wsp: WspParams,
    /// Parameter-server shard placement.
    pub shards: &'a ShardMap,
    /// When false, the WSP clock protocol still runs but push/pull
    /// *transfers* cost nothing — models a standalone virtual worker
    /// measured without data parallelism, as in the paper's Figure 3.
    pub sync_transfers: bool,
    /// The pipeline schedule every VW runs.
    pub schedule: Schedule,
    /// Activation recomputation: with
    /// [`RecomputePolicy::BoundaryOnly`] every non-fused backward is
    /// preceded by a stage-local forward re-run on the same GPU.
    pub recompute: RecomputePolicy,
}

/// Which timeline resource a fault (rate change) targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RateTarget {
    /// A GPU, by cluster device index.
    Gpu(usize),
    /// A node's NIC, by node index.
    Nic(usize),
}

/// A scheduled service-rate change: at `at` (segment-local simulated
/// time) the target resource's rate becomes `rate` (1.0 = nominal,
/// `1/k` = a ×k slowdown, ≤ 0 = lost). Fired as a first-class DES
/// event; reservations made after it fires are scaled by the new rate
/// (work already on the timeline keeps its granted duration).
#[derive(Debug, Clone, Copy)]
pub struct RateEvent {
    /// Segment-local fire time.
    pub at: SimTime,
    /// The resource whose rate changes.
    pub target: RateTarget,
    /// The new service-rate multiplier.
    pub rate: f64,
}

/// Options for one executor *segment* — the unit the fault-aware
/// runtime (`hetpipe-runtime`) splices: a bounded run that may start
/// under pre-existing fault rates, experience scheduled rate changes,
/// stop injecting work at a wave boundary (and drain), and optionally
/// relax strict composite-stream order within a bounded window.
///
/// The default options reproduce [`run`] exactly: no faults, no stop,
/// strict order — the zero-fault golden-trace invariance the tier-1
/// tests pin.
#[derive(Debug, Clone, Default)]
pub struct SegmentOpts {
    /// Stop *injecting* minibatches after this one (1-indexed,
    /// segment-local) and drain: ops of later minibatches are
    /// discarded unexecuted, so the segment ends — at the splice
    /// point — once every in-flight minibatch and the boundary wave's
    /// push/pull traffic completes. Must be a wave boundary
    /// (a multiple of `Nm`) so the WSP clock is whole at the splice.
    pub stop_after_mb: Option<u64>,
    /// Rates already in effect when the segment starts (fault windows
    /// opened in an earlier segment).
    pub initial_rates: Vec<(RateTarget, f64)>,
    /// Rate changes that fire during the segment.
    pub rate_events: Vec<RateEvent>,
    /// `SkipStraggler` support: when > 0, a GPU whose composite-stream
    /// head op is blocked on a data dependency may execute a *ready
    /// backward* (with its recompute prefix) from up to this many ops
    /// ahead in its own stream. Backwards only — they release
    /// activations, never acquire them — and never past a closed
    /// [`ScheduleOp::PullGate`] or an earlier op of the same stage, so
    /// the declared occupancy and staleness bounds hold unchanged.
    /// 0 (the default) is strict stream order.
    pub reorder_window: usize,
}

/// One virtual worker's synchronization statistics.
#[derive(Debug, Clone, Default)]
pub struct VwStats {
    /// Completion times of every finished minibatch.
    pub completions: Vec<SimTime>,
    /// Waves pushed (final local clock).
    pub waves_pushed: u64,
    /// Total time spent between requesting a pull and the straggler
    /// condition being satisfied (Section 8.4's "waiting time").
    pub pull_wait: SimTime,
    /// The individual waiting windows, for idle-time analysis.
    pub wait_windows: Vec<(SimTime, SimTime)>,
    /// Time the injection gate was closed by the staleness bound while
    /// a pipeline slot was free.
    pub inject_blocked: SimTime,
}

/// Raw results of a simulation run.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Simulated horizon actually reached.
    pub horizon: SimTime,
    /// Per-VW statistics.
    pub vws: Vec<VwStats>,
    /// Span trace (GPU and NIC occupancy).
    pub trace: Trace<SpanTag>,
    /// GPU resource IDs by device index.
    pub gpu_resources: Vec<ResourceId>,
    /// NIC resource IDs by node index.
    pub nic_resources: Vec<ResourceId>,
    /// Final resource pool (busy-time accounting).
    pub pool: ResourcePool,
    /// Cross-node bytes moved for parameter synchronization.
    pub sync_bytes_inter: u64,
    /// Intra-node bytes moved for parameter synchronization.
    pub sync_bytes_intra: u64,
    /// Cross-node bytes moved for activations/gradients.
    pub act_bytes_inter: u64,
    /// Intra-node bytes moved for activations/gradients.
    pub act_bytes_intra: u64,
    /// The *planned* (nominal, fault-free) per-VW per-stage forward
    /// compute times the run dispatched with — the denominator of the
    /// runtime monitor's observed/planned straggler ratio.
    pub planned_fwd: Vec<Vec<SimTime>>,
    /// Planned per-VW per-stage backward compute times.
    pub planned_bwd: Vec<Vec<SimTime>>,
    /// Instant of the last processed event — for a draining segment
    /// (`SegmentOpts::stop_after_mb`) this is the splice point where
    /// the boundary wave's last work finished.
    pub end: SimTime,
    /// DES events processed.
    pub events: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    FwdArrive {
        vw: u32,
        stage: u32,
        mb: u64,
    },
    FwdDone {
        vw: u32,
        stage: u32,
        mb: u64,
    },
    BwdArrive {
        vw: u32,
        stage: u32,
        mb: u64,
    },
    BwdDone {
        vw: u32,
        stage: u32,
        mb: u64,
    },
    PushChunkDone {
        vw: u32,
        wave: u64,
    },
    PullChunkDone {
        vw: u32,
    },
    TryInject {
        vw: u32,
    },
    /// A scheduled service-rate change fires
    /// (`SegmentOpts::rate_events[idx]`).
    Fault {
        idx: u32,
    },
}

struct VwState {
    next_mb: u64,
    completed: u64,
    clock: u64,
    /// Newest global wave reflected in the local weights (−1 = none).
    pulled: i64,
    /// Outstanding pull request: (target wave, request time).
    pull_request: Option<(u64, SimTime)>,
    /// Remaining chunks of an in-flight pull and the version it carries.
    pull_remaining: usize,
    pull_serving_version: i64,
    /// Remaining transfer chunks of each in-flight wave push, keyed by
    /// wave. Pushes of consecutive waves proceed *concurrently* (their
    /// transfers contend on the NIC timelines like any other traffic);
    /// per-wave counters keep their completions independent, so a
    /// sync-bound regime is not serialized artificially.
    push_remaining: BTreeMap<u64, usize>,
    block_start: Option<SimTime>,
    stats: VwStats,
}

/// The kinds of GPU task a stream op maps to.
#[derive(Debug, Clone, Copy)]
enum StreamTask {
    Forward,
    Backward,
    Fused,
    /// A stage-local forward re-run ahead of a backward (activation
    /// recomputation). Nothing downstream depends on its completion —
    /// its backward is reserved right behind it on the same FIFO GPU
    /// timeline — so it schedules no event.
    Recompute,
}

/// One stage's executor-enforced activation window (all dispatch
/// disciplines).
struct StageWindow {
    /// The declared occupancy bound ([`PipelineSchedule::max_in_flight`]).
    window: u64,
    /// Minibatches holding (or about to hold) an activation set here:
    /// forward *dispatched* (GPU slot reserved), backward not yet
    /// completed. An upper bound on trace-measured occupancy, which
    /// counts from forward *completion*.
    outstanding: u64,
    /// Forward arrivals deferred by the gate, in arrival (= minibatch)
    /// order, released one per backward completion.
    deferred: VecDeque<u64>,
}

/// One stage's position in its schedule stream (stream-order dispatch
/// only).
struct StageCursor {
    stream: ScheduleStream,
    /// The op the stage is waiting to execute (peeked, not consumed).
    next: Option<ScheduleOp>,
    /// Newest minibatch whose forward activations have arrived from
    /// the previous stage (arrivals are FIFO, so a high-water mark
    /// suffices).
    fwd_arrived: u64,
    /// Newest minibatch whose output gradients have arrived from the
    /// next stage.
    bwd_arrived: u64,
    /// Drain mode only (`SegmentOpts::stop_after_mb`): this stage has
    /// emitted every backward up to the stop point, so its cursor is
    /// parked permanently.
    drained: bool,
}

/// One physical GPU's position in its *composite* stream
/// (`GpuStreamOrder` dispatch only): the GPU executes one merged
/// timeline over all of its co-located virtual-stage chunks, so the
/// cursor and the arrival high-water marks are keyed by GPU and
/// chunk rather than by virtual stage.
struct GpuCursor {
    stream: GpuStream,
    /// Ops pulled from the stream but not yet executed. `buf[0]` is
    /// the head (strict-order) op; under a non-zero
    /// [`SegmentOpts::reorder_window`] the executor may serve a ready
    /// backward from deeper in the buffer while the head is blocked.
    buf: VecDeque<GpuOp>,
    /// Newest minibatch whose forward activations have arrived at
    /// each local chunk (chunk `c` is virtual stage
    /// `c × gpus + gpu`).
    fwd_arrived: Vec<u64>,
    /// Newest minibatch whose output gradients have arrived at each
    /// local chunk.
    bwd_arrived: Vec<u64>,
    /// Highest backward minibatch consumed (executed or, in drain
    /// mode, discarded) per local chunk — the GPU's drain progress.
    bwd_consumed: Vec<u64>,
}

struct Exec<'a> {
    p: ExecParams<'a>,
    engine: Engine<Ev>,
    pool: ResourcePool,
    trace: Trace<SpanTag>,
    gpu_res: Vec<ResourceId>,
    nic_res: Vec<ResourceId>,
    states: Vec<VwState>,
    /// Per-VW per-stage forward/backward compute times.
    fwd: Vec<Vec<SimTime>>,
    bwd: Vec<Vec<SimTime>>,
    /// Per-VW sync chunk lists (same for every wave; empty when the
    /// run models no sync transfers).
    chunks: Vec<Vec<SyncChunk>>,
    /// Per-VW per-stage stream cursors (stream-order dispatch only).
    cursors: Vec<Vec<StageCursor>>,
    /// Per-VW per-physical-GPU composite stream cursors
    /// (`GpuStreamOrder` dispatch only).
    gpu_cursors: Vec<Vec<GpuCursor>>,
    /// Per-VW per-stage activation windows (arrival-FIFO dispatch
    /// gates on these; both paths debug-assert against them).
    windows: Vec<Vec<StageWindow>>,
    /// The slowest VW's clock, and how many VWs sit at it: a pull for
    /// wave `t` is servable once `min_clock > t`.
    min_clock: u64,
    at_min_clock: usize,
    dispatch: Dispatch,
    opts: SegmentOpts,
    horizon: SimTime,
    sync_inter: u64,
    sync_intra: u64,
    act_inter: u64,
    act_intra: u64,
}

impl<'a> Exec<'a> {
    fn new(p: ExecParams<'a>, opts: SegmentOpts, horizon: SimTime) -> Self {
        let cluster = p.cluster;
        let mut pool = ResourcePool::new();
        let gpu_res: Vec<ResourceId> = cluster
            .devices()
            .map(|d| pool.add(Resource::new(format!("gpu{}", d.0))))
            .collect();
        let nic_res: Vec<ResourceId> = (0..cluster.node_count())
            .map(|n| pool.add(Resource::new(format!("nic{n}"))))
            .collect();

        let mut fwd = Vec::new();
        let mut bwd = Vec::new();
        let mut chunks = Vec::new();
        for vw in p.vws {
            let mut f = Vec::new();
            let mut b = Vec::new();
            for (q, range) in vw.plan.ranges.iter().enumerate() {
                let spec = cluster.spec_of(vw.devices[q]);
                let layers = &p.graph.layers()[range.clone()];
                let fs: f64 = layers
                    .iter()
                    .map(|l| pass_time_secs(l, &spec, Pass::Forward))
                    .sum();
                let bs: f64 = layers
                    .iter()
                    .map(|l| pass_time_secs(l, &spec, Pass::Backward))
                    .sum();
                // Each dispatched stage task pays the framework cost.
                f.push(SimTime::from_secs(fs + STAGE_TASK_OVERHEAD_SECS));
                b.push(SimTime::from_secs(bs + STAGE_TASK_OVERHEAD_SECS));
            }
            fwd.push(f);
            bwd.push(b);
            chunks.push(if p.sync_transfers {
                p.shards.chunks_for(p.graph, cluster, vw)
            } else {
                Vec::new()
            });
        }

        let states = (0..p.vws.len())
            .map(|_| VwState {
                next_mb: 1,
                completed: 0,
                clock: 0,
                pulled: -1,
                pull_request: None,
                pull_remaining: 0,
                pull_serving_version: -1,
                push_remaining: BTreeMap::new(),
                block_start: None,
                stats: VwStats::default(),
            })
            .collect();

        let dispatch = p.schedule.dispatch();
        // Per-stage effective recompute: stages whose window is 1 (and
        // fused last stages) skip checkpointing — the streams, the
        // cost model, and the memory accounting all key on the same
        // `recomputes_at` decision.
        let effective = |stage: usize, k: usize| -> RecomputePolicy {
            if p.schedule.recomputes_at(stage, k, p.wsp.nm, p.recompute) {
                p.recompute
            } else {
                RecomputePolicy::None
            }
        };
        let cursors = match dispatch {
            Dispatch::ArrivalFifo | Dispatch::GpuStreamOrder => Vec::new(),
            Dispatch::StreamOrder => p
                .vws
                .iter()
                .map(|vw| {
                    let k = vw.stages();
                    (0..k)
                        .map(|stage| StageCursor {
                            stream: p
                                .schedule
                                .stream(stage, k, p.wsp)
                                .with_recompute(effective(stage, k)),
                            next: None,
                            fwd_arrived: 0,
                            bwd_arrived: 0,
                            drained: false,
                        })
                        .collect()
                })
                .collect(),
        };
        let gpu_cursors = match dispatch {
            Dispatch::ArrivalFifo | Dispatch::StreamOrder => Vec::new(),
            Dispatch::GpuStreamOrder => p
                .vws
                .iter()
                .map(|vw| {
                    let chunks = p.schedule.colocated_stages();
                    let gpus = vw.stages() / chunks;
                    // One *shared* joint timetable per VW, fanned into
                    // the per-GPU handles — the slot simulation runs
                    // once per VW instead of once per GPU, with
                    // identical per-GPU op sequences.
                    p.schedule
                        .gpu_streams_with(gpus, p.wsp, p.recompute)
                        .expect("GpuStreamOrder schedules declare composite streams")
                        .into_iter()
                        .map(|stream| GpuCursor {
                            stream,
                            buf: VecDeque::new(),
                            fwd_arrived: vec![0; chunks],
                            bwd_arrived: vec![0; chunks],
                            bwd_consumed: vec![0; chunks],
                        })
                        .collect()
                })
                .collect(),
        };

        // The executor-enforced activation windows: exactly what the
        // memory model charges per stage (PipelineSchedule is the
        // contract between the partitioner's certification and the
        // runtime).
        let windows = p
            .vws
            .iter()
            .map(|vw| {
                let k = vw.stages();
                (0..k)
                    .map(|stage| StageWindow {
                        window: p.schedule.max_in_flight(stage, k, p.wsp.nm) as u64,
                        outstanding: 0,
                        deferred: VecDeque::new(),
                    })
                    .collect()
            })
            .collect();

        let vw_count = p.vws.len();
        Exec {
            p,
            engine: Engine::new(),
            pool,
            trace: Trace::new(),
            gpu_res,
            nic_res,
            states,
            fwd,
            bwd,
            chunks,
            cursors,
            gpu_cursors,
            windows,
            min_clock: 0,
            at_min_clock: vw_count,
            dispatch,
            opts,
            horizon,
            sync_inter: 0,
            sync_intra: 0,
            act_inter: 0,
            act_intra: 0,
        }
    }

    fn gpu_of(&self, vw: usize, stage: usize) -> ResourceId {
        self.gpu_res[self.p.vws[vw].devices[stage].0]
    }

    fn node_of(&self, vw: usize, stage: usize) -> NodeId {
        self.p.cluster.node_of(self.p.vws[vw].devices[stage])
    }

    fn in_flight(&self, vw: usize) -> u64 {
        let s = &self.states[vw];
        s.next_mb - 1 - s.completed
    }

    /// The pool resource a fault target maps to.
    fn fault_resource(&self, target: RateTarget) -> ResourceId {
        match target {
            RateTarget::Gpu(device) => self.gpu_res[device],
            RateTarget::Nic(node) => self.nic_res[node],
        }
    }

    /// Applies the rate change of `rate_events[idx]` to the resource's
    /// current-rate knob (the full timeline was installed up front, so
    /// reservations already integrate across this edge; the knob keeps
    /// `Resource::rate` — and the slower-endpoint choice in
    /// [`Exec::transfer`] — in step with the fired edges).
    fn apply_fault(&mut self, idx: usize) {
        let ev = self.opts.rate_events[idx];
        let res = self.fault_resource(ev.target);
        self.pool.get_mut(res).set_rate(ev.rate);
    }

    /// Reserves `nominal` GPU work starting no earlier than `now`,
    /// integrated over the GPU's installed rate timeline (exact
    /// identity on the nominal-rate golden path). Work that spans a
    /// rate edge is split across the windows it covers, so an outage
    /// with a later recovery delays the task instead of wedging it.
    fn gpu_reserve(&mut self, gpu: ResourceId, nominal: SimTime) -> (SimTime, SimTime) {
        let now = self.engine.now();
        self.pool.get_mut(gpu).reserve_work(now, nominal)
    }

    /// True when injection (or op execution) of `mb` is past the
    /// segment's stop point.
    fn past_stop(&self, mb: u64) -> bool {
        self.opts.stop_after_mb.is_some_and(|m| mb > m)
    }

    /// Moves `bytes` between two nodes, returning the arrival time.
    /// Inter-node transfers reserve both endpoint NICs; intra-node
    /// transfers use dedicated PCIe lanes.
    fn transfer(&mut self, from: NodeId, to: NodeId, bytes: u64, tag: SpanTag) -> SimTime {
        let now = self.engine.now();
        if from == to {
            // Dedicated PCIe lanes carry no timeline resource, so link
            // degradation targets NICs (inter-node traffic) only.
            now + SimTime::from_secs(LinkKind::Pcie.transfer_secs(bytes))
        } else {
            let dur = SimTime::from_secs(LinkKind::Infiniband.transfer_secs(bytes));
            let a = self.nic_res[from.0];
            let b = self.nic_res[to.0];
            // A degraded link runs at the slower endpoint's rate.
            let slower = if self.pool.get(a).rate() <= self.pool.get(b).rate() {
                a
            } else {
                b
            };
            let start = now
                .max(self.pool.get(a).free_at())
                .max(self.pool.get(b).free_at());
            let dur = self.pool.get(slower).duration_from(start, dur);
            let (s1, e1) = self.pool.get_mut(a).reserve(start, dur);
            let (s2, e2) = self.pool.get_mut(b).reserve(start, dur);
            debug_assert_eq!((s1, e1), (s2, e2), "paired NIC slots must align");
            self.trace.record(a, s1, e1, tag);
            self.trace.record(b, s2, e2, tag);
            e1
        }
    }

    fn account_act(&mut self, from: NodeId, to: NodeId, bytes: u64) {
        if from == to {
            self.act_intra += bytes;
        } else {
            self.act_inter += bytes;
        }
    }

    fn account_sync(&mut self, from: NodeId, to: NodeId, bytes: u64) {
        if from == to {
            self.sync_intra += bytes;
        } else {
            self.sync_inter += bytes;
        }
    }

    fn handle(&mut self, ev: Ev) {
        if let Ev::Fault { idx } = ev {
            return self.apply_fault(idx as usize);
        }
        match self.dispatch {
            Dispatch::ArrivalFifo => self.handle_arrival_fifo(ev),
            Dispatch::StreamOrder => self.handle_stream_order(ev),
            Dispatch::GpuStreamOrder => self.handle_gpu_stream_order(ev),
        }
    }

    // ------------------------------------------------------------------
    // Arrival-FIFO dispatch: the paper's wave schedule. This path is the
    // seed executor's event logic, unchanged (see `crate::golden` and
    // the golden-trace test).
    // ------------------------------------------------------------------

    fn handle_arrival_fifo(&mut self, ev: Ev) {
        match ev {
            Ev::TryInject { vw } => self.try_inject(vw as usize),
            Ev::FwdArrive { vw, stage, mb } => self.fwd_arrive(vw as usize, stage as usize, mb),
            Ev::FwdDone { vw, stage, mb } => self.fwd_done(vw as usize, stage as usize, mb),
            Ev::BwdArrive { vw, stage, mb } => self.bwd_arrive(vw as usize, stage as usize, mb),
            Ev::BwdDone { vw, stage, mb } => self.bwd_done(vw as usize, stage as usize, mb),
            Ev::PushChunkDone { vw, wave } => self.push_chunk_done(vw as usize, wave),
            Ev::PullChunkDone { vw } => self.pull_chunk_done(vw as usize),
            Ev::Fault { .. } => unreachable!("faults are handled centrally"),
        }
    }

    fn try_inject(&mut self, vw: usize) {
        let now = self.engine.now();
        loop {
            if self.in_flight(vw) >= self.p.wsp.nm as u64 {
                break;
            }
            let p = self.states[vw].next_mb;
            // Segment drain: stop injecting past the splice boundary.
            if self.past_stop(p) {
                break;
            }
            // The WSP start gate: do the local weights reflect the
            // required global wave?
            if let Some(req) = self.p.wsp.required_wave(p) {
                if self.states[vw].pulled < req as i64 {
                    let st = &mut self.states[vw];
                    if st.block_start.is_none() {
                        st.block_start = Some(now);
                    }
                    return;
                }
            }
            let st = &mut self.states[vw];
            if let Some(b) = st.block_start.take() {
                st.stats.inject_blocked += now - b;
            }
            st.next_mb += 1;
            self.engine.schedule_in(
                SimTime::ZERO,
                Ev::FwdArrive {
                    vw: vw as u32,
                    stage: 0,
                    mb: p,
                },
            );
        }
    }

    /// Forward activations of `mb` arrive at `stage`. Dispatch is gated
    /// on the stage's declared activation window: if the stage already
    /// has `window` minibatches holding (or dispatched to hold)
    /// activation sets, the arrival queues until a backward releases
    /// one. This is what makes [`PipelineSchedule::max_in_flight`] an
    /// enforced bound rather than documentation. (For the wave
    /// schedule the declared window is the injection cap `Nm`, which
    /// the `try_inject` gate already guarantees — so the gate never
    /// fires there and the golden traces are bit-identical — but a
    /// schedule declaring a tighter window is throttled to it.)
    fn fwd_arrive(&mut self, vw: usize, stage: usize, mb: u64) {
        // Same tracking predicate as release_window, so acquire and
        // release stay paired for any arrival-FIFO schedule.
        if self.window_tracked(vw, stage) {
            let w = &mut self.windows[vw][stage];
            if w.outstanding >= w.window {
                w.deferred.push_back(mb);
                return;
            }
            w.outstanding += 1;
        }
        self.dispatch_forward(vw, stage, mb);
    }

    /// Reserves the GPU slot(s) for `mb`'s forward (or fused
    /// forward+backward at the last stage) and schedules completion.
    fn dispatch_forward(&mut self, vw: usize, stage: usize, mb: u64) {
        let k = self.p.vws[vw].stages();
        let gpu = self.gpu_of(vw, stage);
        if stage == k - 1 {
            // Fused forward+backward at the last stage (Section 4).
            let (s, e) = self.gpu_reserve(gpu, self.fwd[vw][stage] + self.bwd[vw][stage]);
            self.trace.record(
                gpu,
                s,
                e,
                SpanTag::Backward {
                    vw: vw as u32,
                    stage: stage as u32,
                    mb,
                },
            );
            self.engine.schedule_at(
                e,
                Ev::BwdDone {
                    vw: vw as u32,
                    stage: stage as u32,
                    mb,
                },
            );
        } else {
            let (s, e) = self.gpu_reserve(gpu, self.fwd[vw][stage]);
            self.trace.record(
                gpu,
                s,
                e,
                SpanTag::Forward {
                    vw: vw as u32,
                    stage: stage as u32,
                    mb,
                },
            );
            self.engine.schedule_at(
                e,
                Ev::FwdDone {
                    vw: vw as u32,
                    stage: stage as u32,
                    mb,
                },
            );
        }
    }

    fn fwd_done(&mut self, vw: usize, stage: usize, mb: u64) {
        // Send the boundary activations to the next stage.
        let range_end = self.p.vws[vw].plan.ranges[stage].end;
        let bytes = self.p.graph.boundary_bytes(range_end - 1);
        let from = self.node_of(vw, stage);
        let to = self.node_of(vw, stage + 1);
        self.account_act(from, to, bytes);
        let arrive = self.transfer(
            from,
            to,
            bytes,
            SpanTag::ActTransfer {
                vw: vw as u32,
                stage: stage as u32,
                backward: false,
            },
        );
        self.engine.schedule_at(
            arrive,
            Ev::FwdArrive {
                vw: vw as u32,
                stage: (stage + 1) as u32,
                mb,
            },
        );
    }

    fn bwd_arrive(&mut self, vw: usize, stage: usize, mb: u64) {
        let gpu = self.gpu_of(vw, stage);
        let k = self.p.vws[vw].stages();
        if self
            .p
            .schedule
            .recomputes_at(stage, k, self.p.wsp.nm, self.p.recompute)
        {
            // Rematerialize the stage's activations from the stashed
            // boundary input: one forward re-run reserved directly
            // ahead of the backward on the same FIFO timeline.
            let (s, e) = self.gpu_reserve(gpu, self.fwd[vw][stage]);
            self.trace.record(
                gpu,
                s,
                e,
                SpanTag::Recompute {
                    vw: vw as u32,
                    stage: stage as u32,
                    mb,
                },
            );
        }
        let (s, e) = self.gpu_reserve(gpu, self.bwd[vw][stage]);
        self.trace.record(
            gpu,
            s,
            e,
            SpanTag::Backward {
                vw: vw as u32,
                stage: stage as u32,
                mb,
            },
        );
        self.engine.schedule_at(
            e,
            Ev::BwdDone {
                vw: vw as u32,
                stage: stage as u32,
                mb,
            },
        );
    }

    /// Whether `stage` participates in activation-window tracking: a
    /// fused last stage never holds more than the activation set of
    /// the task being executed, so it is exempt.
    fn window_tracked(&self, vw: usize, stage: usize) -> bool {
        !(self.p.schedule.fused_last_stage() && stage + 1 == self.p.vws[vw].stages())
    }

    /// A backward completed at `stage`: release one slot of the
    /// stage's activation window and dispatch the next deferred
    /// forward, if the gate held one back.
    fn release_window(&mut self, vw: usize, stage: usize) {
        if !self.window_tracked(vw, stage) {
            return;
        }
        let w = &mut self.windows[vw][stage];
        debug_assert!(w.outstanding >= 1, "window release without a holder");
        w.outstanding -= 1;
        if w.outstanding < w.window {
            if let Some(mb) = w.deferred.pop_front() {
                w.outstanding += 1;
                self.dispatch_forward(vw, stage, mb);
            }
        }
    }

    fn bwd_done(&mut self, vw: usize, stage: usize, mb: u64) {
        self.release_window(vw, stage);
        if stage > 0 {
            self.send_gradient_left(vw, stage, mb);
            return;
        }

        // Minibatch complete.
        let now = self.engine.now();
        let st = &mut self.states[vw];
        st.completed += 1;
        st.stats.completions.push(now);
        let completed = st.completed;
        self.engine
            .schedule_in(SimTime::ZERO, Ev::TryInject { vw: vw as u32 });
        debug_assert_eq!(completed, mb, "FIFO pipelines complete in order");

        let nm = self.p.wsp.nm as u64;
        if completed.is_multiple_of(nm) {
            let wave = completed / nm - 1;
            self.start_push(vw, wave);
        }
    }

    // ------------------------------------------------------------------
    // Stream-order dispatch: fill-drain, 1F1B, interleaved. Each stage
    // executes its ScheduleOp stream in order; an op runs once its data
    // dependency has arrived.
    // ------------------------------------------------------------------

    fn handle_stream_order(&mut self, ev: Ev) {
        match ev {
            Ev::TryInject { vw } => self.advance(vw as usize, 0),
            Ev::FwdArrive { vw, stage, mb } => {
                let (vw, stage) = (vw as usize, stage as usize);
                let cur = &mut self.cursors[vw][stage];
                debug_assert!(mb > cur.fwd_arrived, "activations arrive in order");
                cur.fwd_arrived = mb;
                self.advance(vw, stage);
            }
            Ev::FwdDone { vw, stage, mb } => {
                let (vw, stage) = (vw as usize, stage as usize);
                if self.window_tracked(vw, stage) {
                    // Stream order keeps occupancy within the declared
                    // window structurally (the stream interleaves
                    // forwards with the backwards that release them);
                    // keep completion-based books so the invariant is
                    // checked, not assumed. An activation set exists
                    // from forward completion to backward completion.
                    let w = &mut self.windows[vw][stage];
                    w.outstanding += 1;
                    debug_assert!(
                        w.outstanding <= w.window,
                        "stream execution exceeded the declared activation window \
                         ({} > {}) at vw{vw} stage {stage}",
                        w.outstanding,
                        w.window
                    );
                }
                if stage + 1 < self.p.vws[vw].stages() {
                    // Identical transfer modelling to the arrival path.
                    self.fwd_done(vw, stage, mb);
                }
            }
            Ev::BwdArrive { vw, stage, mb } => {
                let (vw, stage) = (vw as usize, stage as usize);
                let cur = &mut self.cursors[vw][stage];
                debug_assert!(mb > cur.bwd_arrived, "gradients arrive in order");
                cur.bwd_arrived = mb;
                self.advance(vw, stage);
            }
            Ev::BwdDone { vw, stage, mb } => {
                let (vw, stage) = (vw as usize, stage as usize);
                if self.window_tracked(vw, stage) {
                    // Stream order enforces the window structurally;
                    // keep the occupancy books so the invariant is
                    // checked, not assumed.
                    let w = &mut self.windows[vw][stage];
                    debug_assert!(w.outstanding >= 1, "window release without a holder");
                    w.outstanding -= 1;
                }
                if stage > 0 {
                    self.send_gradient_left(vw, stage, mb);
                    return;
                }
                // Minibatch complete: the stage-0 cursor may be parked
                // on a Push op waiting for this completion.
                let now = self.engine.now();
                let st = &mut self.states[vw];
                st.completed += 1;
                st.stats.completions.push(now);
                debug_assert_eq!(st.completed, mb, "backwards complete in minibatch order");
                self.advance(vw, 0);
            }
            Ev::PushChunkDone { vw, wave } => self.push_chunk_done(vw as usize, wave),
            Ev::PullChunkDone { vw } => self.pull_chunk_done(vw as usize),
            Ev::Fault { .. } => unreachable!("faults are handled centrally"),
        }
    }

    /// The WSP pull gate, shared by every stream-order dispatch path:
    /// true (with blocked-time bookkeeping closed out) when the local
    /// weights reflect `wave`, false (with the blocked window opened)
    /// when the cursor must stay parked on the gate.
    fn pull_gate_open(&mut self, vw: usize, wave: u64, now: SimTime) -> bool {
        let st = &mut self.states[vw];
        if st.pulled >= wave as i64 {
            if let Some(b) = st.block_start.take() {
                st.stats.inject_blocked += now - b;
            }
            true
        } else {
            if st.block_start.is_none() {
                st.block_start = Some(now);
            }
            false
        }
    }

    /// Whether `wave`'s last backward has completed, so its explicit
    /// [`ScheduleOp::Push`] may fire (shared by every stream-order
    /// dispatch path).
    fn wave_push_ready(&self, vw: usize, wave: u64) -> bool {
        self.states[vw].completed >= self.p.wsp.last_of_wave(wave)
    }

    /// Executes stage ops in stream order for as long as their
    /// dependencies are satisfied, reserving GPU time slots eagerly
    /// (the FIFO timeline serializes them in stream order).
    fn advance(&mut self, vw: usize, stage: usize) {
        let now = self.engine.now();
        let k = self.p.vws[vw].stages();
        loop {
            if self.cursors[vw][stage].drained {
                return;
            }
            let op = {
                let cur = &mut self.cursors[vw][stage];
                if cur.next.is_none() {
                    cur.next = cur.stream.next();
                }
                cur.next.expect("schedule streams are infinite")
            };
            // Segment drain: ops of minibatches past the splice
            // boundary never execute. Forwards (and their recomputes)
            // are discarded so the stream can reach the remaining
            // in-boundary backwards behind them; the stage's first
            // past-boundary backward (per-stage backwards are in
            // order) proves every boundary backward was consumed, so
            // the cursor parks permanently there.
            if let Some(mb) = op.minibatch() {
                if self.past_stop(mb) {
                    if op.has_backward() {
                        self.cursors[vw][stage].drained = true;
                        return;
                    }
                    self.cursors[vw][stage].next = None;
                    continue;
                }
            }
            match op {
                ScheduleOp::PullGate { wave } => {
                    if self.pull_gate_open(vw, wave, now) {
                        self.cursors[vw][stage].next = None;
                    } else {
                        return;
                    }
                }
                ScheduleOp::Push { wave } => {
                    if self.wave_push_ready(vw, wave) {
                        self.cursors[vw][stage].next = None;
                        self.start_push(vw, wave);
                    } else {
                        return;
                    }
                }
                ScheduleOp::Forward { mb } => {
                    if stage > 0 && self.cursors[vw][stage].fwd_arrived < mb {
                        return;
                    }
                    if !self.reserve_compute(vw, stage, mb, StreamTask::Forward) {
                        return;
                    }
                    self.cursors[vw][stage].next = None;
                }
                ScheduleOp::FusedFwdBwd { mb } => {
                    if stage > 0 && self.cursors[vw][stage].fwd_arrived < mb {
                        return;
                    }
                    if !self.reserve_compute(vw, stage, mb, StreamTask::Fused) {
                        return;
                    }
                    self.cursors[vw][stage].next = None;
                }
                ScheduleOp::Backward { mb } => {
                    // At the last stage the backward's input is its own
                    // forward, which precedes it on the same GPU
                    // timeline; elsewhere it waits for the gradient
                    // from the right.
                    if stage + 1 < k && self.cursors[vw][stage].bwd_arrived < mb {
                        return;
                    }
                    if !self.reserve_compute(vw, stage, mb, StreamTask::Backward) {
                        return;
                    }
                    self.cursors[vw][stage].next = None;
                }
                ScheduleOp::Recompute { mb } => {
                    // Gated on the same dependency as the backward it
                    // precedes, so the rematerialized activations do
                    // not sit idle while the gradient is in flight.
                    if stage + 1 < k && self.cursors[vw][stage].bwd_arrived < mb {
                        return;
                    }
                    if !self.reserve_compute(vw, stage, mb, StreamTask::Recompute) {
                        return;
                    }
                    self.cursors[vw][stage].next = None;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Per-GPU composite stream dispatch: the Megatron-style interleaved
    // schedule. Each physical GPU executes ONE merged op timeline over
    // all of its co-located virtual-stage chunks, in strict stream
    // order — the schedule (not dependency-arrival order) decides how
    // the chunks interleave on the GPU.
    // ------------------------------------------------------------------

    fn handle_gpu_stream_order(&mut self, ev: Ev) {
        match ev {
            Ev::TryInject { vw } => self.advance_gpu(vw as usize, 0),
            Ev::FwdArrive { vw, stage, mb } => {
                let (vw, stage) = (vw as usize, stage as usize);
                let gpus = self.gpu_cursors[vw].len();
                let (gpu, chunk) = (stage % gpus, stage / gpus);
                let cur = &mut self.gpu_cursors[vw][gpu];
                debug_assert!(mb > cur.fwd_arrived[chunk], "activations arrive in order");
                cur.fwd_arrived[chunk] = mb;
                self.advance_gpu(vw, gpu);
            }
            Ev::FwdDone { vw, stage, mb } => {
                let (vw, stage) = (vw as usize, stage as usize);
                // Completion-based occupancy books, identical to the
                // stream-order path: the composite stream keeps every
                // chunk within its declared window structurally; the
                // books check the invariant rather than assume it.
                let w = &mut self.windows[vw][stage];
                w.outstanding += 1;
                debug_assert!(
                    w.outstanding <= w.window,
                    "composite stream exceeded the declared activation window \
                     ({} > {}) at vw{vw} stage {stage}",
                    w.outstanding,
                    w.window
                );
                if stage + 1 < self.p.vws[vw].stages() {
                    self.fwd_done(vw, stage, mb);
                }
            }
            Ev::BwdArrive { vw, stage, mb } => {
                let (vw, stage) = (vw as usize, stage as usize);
                let gpus = self.gpu_cursors[vw].len();
                let (gpu, chunk) = (stage % gpus, stage / gpus);
                let cur = &mut self.gpu_cursors[vw][gpu];
                debug_assert!(mb > cur.bwd_arrived[chunk], "gradients arrive in order");
                cur.bwd_arrived[chunk] = mb;
                self.advance_gpu(vw, gpu);
            }
            Ev::BwdDone { vw, stage, mb } => {
                let (vw, stage) = (vw as usize, stage as usize);
                let w = &mut self.windows[vw][stage];
                debug_assert!(w.outstanding >= 1, "window release without a holder");
                w.outstanding -= 1;
                if stage > 0 {
                    self.send_gradient_left(vw, stage, mb);
                    return;
                }
                // Minibatch complete: GPU 0's cursor may be parked on a
                // Push op waiting for this completion.
                let now = self.engine.now();
                let st = &mut self.states[vw];
                st.completed += 1;
                st.stats.completions.push(now);
                debug_assert_eq!(st.completed, mb, "backwards complete in minibatch order");
                self.advance_gpu(vw, 0);
            }
            Ev::PushChunkDone { vw, wave } => self.push_chunk_done(vw as usize, wave),
            Ev::PullChunkDone { vw } => self.pull_chunk_done(vw as usize),
            Ev::Fault { .. } => unreachable!("faults are handled centrally"),
        }
    }

    /// Ensures `gpu`'s op buffer holds at least `len` ops, pulling
    /// from the composite stream as needed.
    fn fill_gpu_buf(&mut self, vw: usize, gpu: usize, len: usize) {
        let cur = &mut self.gpu_cursors[vw][gpu];
        while cur.buf.len() < len {
            let gop = cur.stream.next().expect("gpu streams are infinite");
            cur.buf.push_back(gop);
        }
    }

    /// Executes `gpu`'s composite stream in order for as long as op
    /// dependencies are satisfied, reserving GPU time slots eagerly
    /// (the FIFO timeline serializes them in stream order) — the
    /// per-GPU analogue of [`Exec::advance`]. Two segment-mode
    /// extensions, both off by default:
    ///
    /// - **drain** ([`SegmentOpts::stop_after_mb`]): past-boundary ops
    ///   are discarded unexecuted. Unlike the per-stage streams, a
    ///   composite stream interleaves chunks, and a deep chunk's
    ///   backward of `mb + 1` can legitimately precede a shallow
    ///   chunk's backward of `mb` on the same GPU timeline — so
    ///   past-boundary *backwards* are discarded too (marking their
    ///   chunk fully drained), and the cursor parks once every local
    ///   chunk has consumed its boundary backward.
    /// - **bounded reorder** ([`SegmentOpts::reorder_window`]): when
    ///   the head op is blocked on a data dependency, a *ready
    ///   backward* (with its recompute prefix) from up to `window`
    ///   ops ahead may run instead — the `SkipStraggler` policy's
    ///   lever against head-of-line blocking when a straggler's
    ///   gradient is late. Backwards only (they release activation
    ///   windows, never acquire), never past a closed pull gate, and
    ///   never past an earlier op of their own stage, so declared
    ///   occupancy, per-stage order, and staleness all hold.
    fn advance_gpu(&mut self, vw: usize, gpu: usize) {
        let now = self.engine.now();
        let k = self.p.vws[vw].stages();
        let gpus = self.gpu_cursors[vw].len();
        loop {
            self.fill_gpu_buf(vw, gpu, 1);
            let gop = self.gpu_cursors[vw][gpu].buf[0];
            let stage = gop.stage;
            debug_assert_eq!(stage % gpus, gpu, "op on a foreign GPU");
            let chunk = stage / gpus;
            // Segment drain: discard past-boundary ops; park once all
            // local chunks crossed the boundary (keeping the head
            // available for the boundary wave's Push / PullGate).
            if let Some(stop) = self.opts.stop_after_mb {
                if let Some(mb) = gop.op.minibatch() {
                    if mb > stop {
                        let cur = &mut self.gpu_cursors[vw][gpu];
                        if gop.op.has_backward() {
                            // Backwards are per-stage in order: the
                            // first past-boundary one proves the chunk
                            // is drained.
                            cur.bwd_consumed[chunk] = cur.bwd_consumed[chunk].max(stop);
                        }
                        cur.buf.pop_front();
                        if self.gpu_cursors[vw][gpu]
                            .bwd_consumed
                            .iter()
                            .all(|&m| m >= stop)
                        {
                            return;
                        }
                        continue;
                    }
                }
            }
            let executed = match gop.op {
                ScheduleOp::PullGate { wave } => {
                    if self.pull_gate_open(vw, wave, now) {
                        self.gpu_cursors[vw][gpu].buf.pop_front();
                        continue;
                    }
                    // Nothing may run past a closed gate (staleness).
                    return;
                }
                ScheduleOp::Push { wave } => {
                    if self.wave_push_ready(vw, wave) {
                        self.gpu_cursors[vw][gpu].buf.pop_front();
                        self.start_push(vw, wave);
                        continue;
                    }
                    false
                }
                ScheduleOp::Forward { mb } => {
                    if stage > 0 && self.gpu_cursors[vw][gpu].fwd_arrived[chunk] < mb {
                        false
                    } else if !self.reserve_compute(vw, stage, mb, StreamTask::Forward) {
                        return;
                    } else {
                        true
                    }
                }
                ScheduleOp::Backward { mb } => {
                    // At the pipeline's last virtual stage the
                    // backward's input is its own forward, which
                    // precedes it on this GPU's timeline; elsewhere it
                    // waits for the gradient from the right.
                    if stage + 1 < k && self.gpu_cursors[vw][gpu].bwd_arrived[chunk] < mb {
                        false
                    } else if !self.reserve_compute(vw, stage, mb, StreamTask::Backward) {
                        return;
                    } else {
                        let cur = &mut self.gpu_cursors[vw][gpu];
                        cur.bwd_consumed[chunk] = mb;
                        true
                    }
                }
                ScheduleOp::Recompute { mb } => {
                    if stage + 1 < k && self.gpu_cursors[vw][gpu].bwd_arrived[chunk] < mb {
                        false
                    } else if !self.reserve_compute(vw, stage, mb, StreamTask::Recompute) {
                        return;
                    } else {
                        true
                    }
                }
                ScheduleOp::FusedFwdBwd { .. } => {
                    unreachable!("composite streams never fuse")
                }
            };
            if executed {
                self.gpu_cursors[vw][gpu].buf.pop_front();
                continue;
            }
            // Head blocked on a data dependency (or an unready push):
            // bounded out-of-order service of a ready backward.
            if self.opts.reorder_window == 0 || !self.reorder_backward(vw, gpu, k, gpus) {
                return;
            }
        }
    }

    /// Scans up to `reorder_window` ops past the blocked head of
    /// `gpu`'s buffer for a ready backward (with its recompute prefix)
    /// and executes it out of line. Returns whether anything ran. See
    /// [`Exec::advance_gpu`] for the soundness constraints.
    fn reorder_backward(&mut self, vw: usize, gpu: usize, k: usize, gpus: usize) -> bool {
        let window = self.opts.reorder_window;
        for j in 1..=window {
            self.fill_gpu_buf(vw, gpu, j + 1);
            let gop = self.gpu_cursors[vw][gpu].buf[j];
            let (stage, chunk) = (gop.stage, gop.stage / gpus);
            // Preserve per-stage order: never overtake an earlier op
            // of the same stage (covers "backward before its own
            // forward" too, since the forward precedes it in-stage).
            let overtakes_same_stage = self.gpu_cursors[vw][gpu]
                .buf
                .iter()
                .take(j)
                .any(|g| g.stage == stage);
            if overtakes_same_stage {
                continue;
            }
            match gop.op {
                ScheduleOp::Backward { mb } => {
                    if self.past_stop(mb) {
                        continue;
                    }
                    if stage + 1 < k && self.gpu_cursors[vw][gpu].bwd_arrived[chunk] < mb {
                        continue;
                    }
                    if !self.reserve_compute(vw, stage, mb, StreamTask::Backward) {
                        return false;
                    }
                    let cur = &mut self.gpu_cursors[vw][gpu];
                    cur.bwd_consumed[chunk] = mb;
                    cur.buf.remove(j);
                    return true;
                }
                ScheduleOp::Recompute { mb } => {
                    // A checkpointing stage's backward rides directly
                    // behind its recompute; serve them as a unit.
                    if self.past_stop(mb) {
                        continue;
                    }
                    if stage + 1 < k && self.gpu_cursors[vw][gpu].bwd_arrived[chunk] < mb {
                        continue;
                    }
                    self.fill_gpu_buf(vw, gpu, j + 2);
                    debug_assert_eq!(
                        self.gpu_cursors[vw][gpu].buf[j + 1],
                        GpuOp {
                            stage,
                            op: ScheduleOp::Backward { mb }
                        },
                        "recompute must precede its own backward"
                    );
                    if !self.reserve_compute(vw, stage, mb, StreamTask::Recompute) {
                        return false;
                    }
                    self.gpu_cursors[vw][gpu].buf.remove(j);
                    // Backward now sits at index j. Reserving it can
                    // only fail at the horizon edge — then it stays
                    // buffered, exactly like a strict-order cursor
                    // parked after its recompute.
                    if !self.reserve_compute(vw, stage, mb, StreamTask::Backward) {
                        return false;
                    }
                    let cur = &mut self.gpu_cursors[vw][gpu];
                    cur.bwd_consumed[chunk] = mb;
                    cur.buf.remove(j);
                    return true;
                }
                // Forwards acquire activation slots — not reordered.
                // Pushes are wave bookkeeping a backward may pass.
                ScheduleOp::Forward { .. } | ScheduleOp::Push { .. } => continue,
                // A gate fences everything behind it: stop the scan.
                ScheduleOp::PullGate { .. } => return false,
                ScheduleOp::FusedFwdBwd { .. } => {
                    unreachable!("composite streams never fuse")
                }
            }
        }
        false
    }

    /// Reserves a compute task on the stage's GPU, records its span,
    /// and schedules its completion event; returns false when past the
    /// horizon (stops eager reservation — the caller must then leave
    /// its cursor parked on the op, and clear the cursor on success).
    fn reserve_compute(&mut self, vw: usize, stage: usize, mb: u64, task: StreamTask) -> bool {
        let gpu = self.gpu_of(vw, stage);
        if self.pool.get(gpu).free_at() >= self.horizon {
            return false;
        }
        let dur = match task {
            StreamTask::Forward | StreamTask::Recompute => self.fwd[vw][stage],
            StreamTask::Backward => self.bwd[vw][stage],
            StreamTask::Fused => self.fwd[vw][stage] + self.bwd[vw][stage],
        };
        let (s, e) = self.gpu_reserve(gpu, dur);
        let (vw32, stage32) = (vw as u32, stage as u32);
        let (tag, done) = match task {
            StreamTask::Forward => (
                SpanTag::Forward {
                    vw: vw32,
                    stage: stage32,
                    mb,
                },
                Some(Ev::FwdDone {
                    vw: vw32,
                    stage: stage32,
                    mb,
                }),
            ),
            // Nothing waits on a recompute: its backward is reserved
            // right behind it on the same FIFO timeline.
            StreamTask::Recompute => (
                SpanTag::Recompute {
                    vw: vw32,
                    stage: stage32,
                    mb,
                },
                None,
            ),
            // Fused tasks are traced as Backward, matching the wave
            // path's fused last stage.
            StreamTask::Backward | StreamTask::Fused => (
                SpanTag::Backward {
                    vw: vw32,
                    stage: stage32,
                    mb,
                },
                Some(Ev::BwdDone {
                    vw: vw32,
                    stage: stage32,
                    mb,
                }),
            ),
        };
        self.trace.record(gpu, s, e, tag);
        if let Some(done) = done {
            self.engine.schedule_at(e, done);
        }
        true
    }

    /// Sends the gradient w.r.t. a stage's inputs to the previous
    /// stage (shared by both dispatch paths).
    fn send_gradient_left(&mut self, vw: usize, stage: usize, mb: u64) {
        let range_start = self.p.vws[vw].plan.ranges[stage].start;
        let bytes = self.p.graph.input_bytes_of(range_start);
        let from = self.node_of(vw, stage);
        let to = self.node_of(vw, stage - 1);
        self.account_act(from, to, bytes);
        let arrive = self.transfer(
            from,
            to,
            bytes,
            SpanTag::ActTransfer {
                vw: vw as u32,
                stage: stage as u32,
                backward: true,
            },
        );
        self.engine.schedule_at(
            arrive,
            Ev::BwdArrive {
                vw: vw as u32,
                stage: (stage - 1) as u32,
                mb,
            },
        );
    }

    // ------------------------------------------------------------------
    // WSP push/pull protocol (shared by both dispatch paths).
    // ------------------------------------------------------------------

    fn start_push(&mut self, vw: usize, wave: u64) {
        // Consecutive waves' pushes run *concurrently*: each wave
        // tracks its own chunk counter, and its transfers contend on
        // the NIC timelines like any other traffic instead of being
        // serialized FIFO behind the previous wave's completion. (The
        // frozen seed executor in `crate::golden` keeps a single
        // unguarded counter; none of the golden-tested configurations
        // overlap pushes, so trace equality is unaffected.)
        let chunk_count = self.chunks[vw].len();
        if chunk_count == 0 {
            self.push_completed(vw, wave);
            return;
        }
        let prev = self.states[vw].push_remaining.insert(wave, chunk_count);
        debug_assert!(prev.is_none(), "wave {wave} pushed twice");
        for i in 0..chunk_count {
            let ch = self.chunks[vw][i];
            self.account_sync(ch.gpu_node, ch.shard_node, ch.bytes);
            let arrive = self.transfer(
                ch.gpu_node,
                ch.shard_node,
                ch.bytes,
                SpanTag::SyncTransfer {
                    vw: vw as u32,
                    wave,
                    pull: false,
                },
            );
            self.engine.schedule_at(
                arrive,
                Ev::PushChunkDone {
                    vw: vw as u32,
                    wave,
                },
            );
        }
    }

    fn push_chunk_done(&mut self, vw: usize, wave: u64) {
        let st = &mut self.states[vw];
        let remaining = st
            .push_remaining
            .get_mut(&wave)
            .expect("chunk completion for a wave that is not in flight");
        *remaining -= 1;
        if *remaining == 0 {
            st.push_remaining.remove(&wave);
            self.push_completed(vw, wave);
        }
    }

    fn push_completed(&mut self, vw: usize, wave: u64) {
        let now = self.engine.now();
        let old_clock = self.states[vw].clock;
        {
            let st = &mut self.states[vw];
            // Concurrent waves can complete out of order (their chunks
            // take different NIC paths); the local clock is monotone.
            st.clock = st.clock.max(wave + 1);
            st.stats.waves_pushed = st.clock;
        }
        // Clocks only rise, so the minimum moves only when its last
        // holder advances: one O(V) rescan per rise of the minimum.
        let mut min_rose = false;
        if old_clock == self.min_clock && self.states[vw].clock > old_clock {
            self.at_min_clock -= 1;
            if self.at_min_clock == 0 {
                self.min_clock = self.states.iter().map(|s| s.clock).min().unwrap_or(0);
                self.at_min_clock = self
                    .states
                    .iter()
                    .filter(|s| s.clock == self.min_clock)
                    .count();
                min_rose = true;
            }
        }
        debug_assert_eq!(
            self.min_clock,
            self.states.iter().map(|s| s.clock).min().unwrap_or(0),
            "cached minimum clock drifted from a full scan"
        );
        // Request this VW's own pull (Section 5: at the end of clock c,
        // pull weights that cover wave c − D).
        if let Some(target) = self.p.wsp.pull_target_after_push(wave) {
            let st = &mut self.states[vw];
            match &mut st.pull_request {
                Some((t, _since)) => *t = (*t).max(target),
                None => st.pull_request = Some((target, now)),
            }
        }
        // A risen minimum may unblock any VW's pending pull; serve in
        // ascending VW order (the order their transfers queue on the
        // NICs). Otherwise only the pusher's own, possibly new,
        // request can have become servable: every other pending
        // request was tried against this minimum when it was last
        // made or when its VW's pull transfer finished.
        if min_rose {
            for v in 0..self.states.len() {
                self.try_serve_pull(v);
            }
        } else {
            self.try_serve_pull(vw);
        }
    }

    fn try_serve_pull(&mut self, vw: usize) {
        if self.states[vw].pull_remaining > 0 {
            return; // A pull transfer is already in flight.
        }
        let Some((target, since)) = self.states[vw].pull_request else {
            return;
        };
        let min_clock = self.min_clock;
        if min_clock < target + 1 {
            return; // Straggler has not pushed wave `target` yet.
        }
        let now = self.engine.now();
        {
            let st = &mut self.states[vw];
            st.stats.pull_wait += now - since;
            st.stats.wait_windows.push((since, now));
            st.pull_request = None;
            st.pull_serving_version = min_clock as i64 - 1;
        }
        let chunk_count = self.chunks[vw].len();
        if chunk_count == 0 {
            let st = &mut self.states[vw];
            st.pulled = st.pulled.max(st.pull_serving_version);
            self.engine
                .schedule_in(SimTime::ZERO, Ev::TryInject { vw: vw as u32 });
            return;
        }
        self.states[vw].pull_remaining = chunk_count;
        for i in 0..chunk_count {
            let ch = self.chunks[vw][i];
            // Pull direction: shard -> GPU.
            self.account_sync(ch.shard_node, ch.gpu_node, ch.bytes);
            let wave = self.states[vw].pull_serving_version.max(0) as u64;
            let arrive = self.transfer(
                ch.shard_node,
                ch.gpu_node,
                ch.bytes,
                SpanTag::SyncTransfer {
                    vw: vw as u32,
                    wave,
                    pull: true,
                },
            );
            self.engine
                .schedule_at(arrive, Ev::PullChunkDone { vw: vw as u32 });
        }
    }

    fn pull_chunk_done(&mut self, vw: usize) {
        let st = &mut self.states[vw];
        st.pull_remaining -= 1;
        if st.pull_remaining == 0 {
            st.pulled = st.pulled.max(st.pull_serving_version);
            self.engine
                .schedule_in(SimTime::ZERO, Ev::TryInject { vw: vw as u32 });
            // A newer request may have queued while transferring.
            self.try_serve_pull(vw);
        }
    }

    fn run(mut self) -> RunStats {
        // Rates carried over from earlier segments (fault windows that
        // opened before this segment started).
        for i in 0..self.opts.initial_rates.len() {
            let (target, rate) = self.opts.initial_rates[i];
            let res = self.fault_resource(target);
            self.pool.get_mut(res).set_rate(rate);
        }
        // Scheduled rate changes are first-class DES events.
        for (i, ev) in self.opts.rate_events.iter().enumerate() {
            self.engine.schedule_at(ev.at, Ev::Fault { idx: i as u32 });
        }
        // Install each resource's full piecewise rate timeline up
        // front so reservations integrate across windows: a task that
        // spans an outage with a later recovery is delayed, not wedged
        // at the outage rate forever. Fault-free resources keep an
        // empty timeline and take the exact legacy scaling path.
        let mut timelines: std::collections::BTreeMap<ResourceId, Vec<(SimTime, f64)>> =
            std::collections::BTreeMap::new();
        for &(target, rate) in self.opts.initial_rates.iter() {
            let res = self.fault_resource(target);
            timelines
                .entry(res)
                .or_default()
                .push((SimTime::ZERO, rate));
        }
        for ev in self.opts.rate_events.iter() {
            let res = self.fault_resource(ev.target);
            timelines.entry(res).or_default().push((ev.at, ev.rate));
        }
        for (res, edges) in timelines {
            self.pool.get_mut(res).set_rate_schedule(edges);
        }
        for vw in 0..self.p.vws.len() {
            self.engine
                .schedule_at(SimTime::ZERO, Ev::TryInject { vw: vw as u32 });
        }
        let horizon = self.horizon;
        while let Some(ev) = self.engine.next_event_until(horizon) {
            self.handle(ev);
        }
        // A drained segment ends when its last span of work does, not
        // at engine quiescence: scheduled rate edges are first-class
        // events, so a recovery edge far past the splice boundary
        // would otherwise inflate the epoch and ride out the whole
        // outage the splice was meant to dodge.
        let end = if self.opts.stop_after_mb.is_some() {
            self.trace
                .spans()
                .iter()
                .map(|s| s.end)
                .max()
                .unwrap_or(SimTime::ZERO)
                .min(self.engine.now())
        } else {
            self.engine.now()
        };
        RunStats {
            horizon,
            end,
            events: self.engine.processed(),
            vws: self.states.into_iter().map(|s| s.stats).collect(),
            trace: self.trace,
            gpu_resources: self.gpu_res,
            nic_resources: self.nic_res,
            pool: self.pool,
            sync_bytes_inter: self.sync_inter,
            sync_bytes_intra: self.sync_intra,
            act_bytes_inter: self.act_inter,
            act_bytes_intra: self.act_intra,
            planned_fwd: self.fwd,
            planned_bwd: self.bwd,
        }
    }
}

/// Runs the pipeline simulation until `horizon`.
pub fn run(params: ExecParams<'_>, horizon: SimTime) -> RunStats {
    Exec::new(params, SegmentOpts::default(), horizon).run()
}

/// Runs one *segment* of a fault-aware simulation: [`run`] extended
/// with [`SegmentOpts`] — pre-existing and scheduled resource-rate
/// changes (fault injection), an optional stop-and-drain point at a
/// wave boundary (the splice the reactive runtime re-plans at), and a
/// bounded composite-stream reorder window. Default options make this
/// identical to [`run`] — the zero-fault golden-trace invariance.
pub fn run_segment(params: ExecParams<'_>, opts: SegmentOpts, horizon: SimTime) -> RunStats {
    if let Some(stop) = opts.stop_after_mb {
        assert!(
            stop.is_multiple_of(params.wsp.nm as u64),
            "segments splice at wave boundaries (stop {} vs Nm {})",
            stop,
            params.wsp.nm
        );
    }
    Exec::new(params, opts, horizon).run()
}

/// An order-independent FNV-1a digest of a span multiset: spans are
/// canonicalized to `resource start end tag` lines, sorted, and
/// hashed. Two traces fingerprint equal iff they contain the same
/// spans, regardless of recording order, so a golden trace is hashed
/// once and every run is compared against that value.
pub fn trace_fingerprint(spans: &[Span<SpanTag>]) -> u64 {
    let mut lines: Vec<String> = spans
        .iter()
        .map(|s| format!("{} {:?} {:?} {:?}", s.resource.0, s.start, s.end, s.tag))
        .collect();
    lines.sort_unstable();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in &lines {
        for b in line.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= u64::from(b'\n');
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pserver::Placement;
    use hetpipe_cluster::DeviceId;
    use hetpipe_partition::{PartitionProblem, PartitionSolver};

    fn build_vws(
        cluster: &Cluster,
        graph: &ModelGraph,
        groups: &[Vec<DeviceId>],
        nm: usize,
    ) -> Vec<VirtualWorker> {
        groups
            .iter()
            .enumerate()
            .map(|(i, devices)| {
                let gpus = devices.iter().map(|&d| cluster.spec_of(d)).collect();
                let links = VirtualWorker::links(cluster, devices);
                let plan = PartitionSolver::solve(&PartitionProblem::new(graph, gpus, links, nm))
                    .expect("feasible");
                VirtualWorker {
                    index: i,
                    devices: devices.clone(),
                    plan,
                    nm,
                }
            })
            .collect()
    }

    fn ed_groups() -> Vec<Vec<DeviceId>> {
        (0..4)
            .map(|j| (0..4).map(|n| DeviceId(n * 4 + j)).collect())
            .collect()
    }

    fn run_ed_sched(nm: usize, d: usize, secs: f64, schedule: Schedule) -> RunStats {
        let cluster = Cluster::paper_testbed();
        let graph = hetpipe_model::vgg19(32);
        let vws = build_vws(&cluster, &graph, &ed_groups(), nm);
        let shards = ShardMap::build(Placement::Local, &graph, &cluster, &vws[0]);
        run(
            ExecParams {
                cluster: &cluster,
                graph: &graph,
                vws: &vws,
                wsp: WspParams::new(nm, d),
                shards: &shards,
                sync_transfers: true,
                schedule,
                recompute: RecomputePolicy::None,
            },
            SimTime::from_secs(secs),
        )
    }

    fn run_ed(nm: usize, d: usize, secs: f64) -> RunStats {
        run_ed_sched(nm, d, secs, Schedule::HetPipeWave)
    }

    #[test]
    fn pipeline_makes_progress() {
        let stats = run_ed(4, 0, 30.0);
        for (i, vw) in stats.vws.iter().enumerate() {
            assert!(
                vw.completions.len() > 20,
                "vw{} completed only {}",
                i,
                vw.completions.len()
            );
            assert!(
                vw.waves_pushed > 4,
                "vw{} pushed {} waves",
                i,
                vw.waves_pushed
            );
        }
    }

    #[test]
    fn completions_are_monotone_and_fifo() {
        let stats = run_ed(4, 0, 10.0);
        for vw in &stats.vws {
            for w in vw.completions.windows(2) {
                assert!(w[0] <= w[1]);
            }
        }
    }

    #[test]
    fn deeper_pipelining_increases_throughput() {
        let t1 = run_ed(1, 0, 30.0).vws[0].completions.len();
        let t4 = run_ed(4, 0, 30.0).vws[0].completions.len();
        assert!(
            t4 as f64 > t1 as f64 * 1.5,
            "Nm=4 ({t4}) should clearly beat Nm=1 ({t1})"
        );
    }

    #[test]
    fn d0_keeps_vws_in_lockstep() {
        // With D = 0 every VW's clock stays within 1 of the others
        // (BSP-like behaviour, Section 5).
        let stats = run_ed(4, 0, 20.0);
        let clocks: Vec<u64> = stats.vws.iter().map(|v| v.waves_pushed).collect();
        let max = *clocks.iter().max().unwrap();
        let min = *clocks.iter().min().unwrap();
        assert!(max - min <= 1, "clocks diverged: {clocks:?}");
    }

    #[test]
    fn larger_d_reduces_waiting() {
        // ED VWs are identical so waits are small either way, but D = 4
        // must never wait longer than D = 0 (Section 8.4).
        let w0: SimTime = run_ed(4, 0, 30.0)
            .vws
            .iter()
            .map(|v| v.pull_wait)
            .fold(SimTime::ZERO, |a, b| a + b);
        let w4: SimTime = run_ed(4, 4, 30.0)
            .vws
            .iter()
            .map(|v| v.pull_wait)
            .fold(SimTime::ZERO, |a, b| a + b);
        assert!(w4 <= w0, "D=4 wait {w4} should not exceed D=0 wait {w0}");
    }

    #[test]
    fn determinism() {
        for schedule in Schedule::ALL {
            if matches!(schedule, Schedule::Interleaved1F1B { .. }) {
                // Interleaved VWs need expanded plans; covered by the
                // system-level tests.
                continue;
            }
            let a = run_ed_sched(4, 0, 10.0, schedule);
            let b = run_ed_sched(4, 0, 10.0, schedule);
            assert_eq!(a.vws.len(), b.vws.len());
            for (x, y) in a.vws.iter().zip(&b.vws) {
                assert_eq!(x.completions, y.completions, "{schedule}");
                assert_eq!(x.waves_pushed, y.waves_pushed, "{schedule}");
            }
            assert_eq!(a.trace.len(), b.trace.len(), "{schedule}");
        }
    }

    #[test]
    fn local_placement_no_cross_node_sync() {
        let stats = run_ed(4, 0, 10.0);
        assert_eq!(stats.sync_bytes_inter, 0, "ED-local sync must stay on-node");
        assert!(stats.sync_bytes_intra > 0);
        // ED activations cross nodes by construction.
        assert!(stats.act_bytes_inter > 0);
    }

    #[test]
    fn single_gpu_vw_works() {
        // A VW of one GPU degenerates to plain (non-pipelined) training.
        let cluster = Cluster::paper_testbed();
        let graph = hetpipe_model::vgg19(32);
        let groups = vec![vec![DeviceId(0)], vec![DeviceId(1)]];
        let vws = build_vws(&cluster, &graph, &groups, 1);
        let shards = ShardMap::build(Placement::Default, &graph, &cluster, &vws[0]);
        let stats = run(
            ExecParams {
                cluster: &cluster,
                graph: &graph,
                vws: &vws,
                wsp: WspParams::new(1, 0),
                shards: &shards,
                sync_transfers: true,
                schedule: Schedule::HetPipeWave,
                recompute: RecomputePolicy::None,
            },
            SimTime::from_secs(20.0),
        );
        assert!(stats.vws[0].completions.len() > 10);
    }

    #[test]
    fn straggler_vws_forced_to_wait_under_d0() {
        // NP-style allocation: one fast VVVV VW and one slow QQQQ VW.
        // With D = 0 the fast VW must accumulate pull waiting time.
        let cluster = Cluster::paper_testbed();
        let graph = hetpipe_model::vgg19(32);
        let groups = vec![
            (0..4).map(DeviceId).collect::<Vec<_>>(),
            (12..16).map(DeviceId).collect::<Vec<_>>(),
        ];
        let vws = build_vws(&cluster, &graph, &groups, 2);
        let shards = ShardMap::build(Placement::Default, &graph, &cluster, &vws[0]);
        let stats = run(
            ExecParams {
                cluster: &cluster,
                graph: &graph,
                vws: &vws,
                wsp: WspParams::new(2, 0),
                shards: &shards,
                sync_transfers: true,
                schedule: Schedule::HetPipeWave,
                recompute: RecomputePolicy::None,
            },
            SimTime::from_secs(30.0),
        );
        let fast = &stats.vws[0];
        let slow = &stats.vws[1];
        assert!(
            fast.pull_wait > slow.pull_wait,
            "fast VW should wait more: {} vs {}",
            fast.pull_wait,
            slow.pull_wait
        );
        // Lockstep: completed waves within 1.
        assert!(fast.waves_pushed.abs_diff(slow.waves_pushed) <= 1);
    }

    // --------------------------------------------------------------
    // Stream-order schedules through the same executor.
    // --------------------------------------------------------------

    #[test]
    fn stream_schedules_make_progress_and_push_waves() {
        for schedule in [Schedule::FillDrain, Schedule::OneFOneB] {
            let stats = run_ed_sched(4, 0, 30.0, schedule);
            for (i, vw) in stats.vws.iter().enumerate() {
                assert!(
                    vw.completions.len() > 20,
                    "{schedule} vw{i} completed only {}",
                    vw.completions.len()
                );
                assert!(
                    vw.waves_pushed > 4,
                    "{schedule} vw{i} pushed {} waves",
                    vw.waves_pushed
                );
            }
        }
    }

    #[test]
    fn one_f_one_b_beats_fill_drain() {
        // 1F1B overlaps the drain with the next fill; with Nm = 4 its
        // steady state strictly dominates GPipe's fill-drain bubbles.
        let gpipe = run_ed_sched(4, 0, 30.0, Schedule::FillDrain).vws[0]
            .completions
            .len();
        let ofob = run_ed_sched(4, 0, 30.0, Schedule::OneFOneB).vws[0]
            .completions
            .len();
        assert!(
            ofob > gpipe,
            "1F1B ({ofob}) must strictly beat fill-drain ({gpipe})"
        );
    }

    #[test]
    fn stream_schedules_respect_d0_lockstep() {
        for schedule in [Schedule::FillDrain, Schedule::OneFOneB] {
            let stats = run_ed_sched(4, 0, 20.0, schedule);
            let clocks: Vec<u64> = stats.vws.iter().map(|v| v.waves_pushed).collect();
            let max = *clocks.iter().max().unwrap();
            let min = *clocks.iter().min().unwrap();
            assert!(max - min <= 1, "{schedule} clocks diverged: {clocks:?}");
        }
    }

    // --------------------------------------------------------------
    // Segment machinery: faults, drains, zero-fault invariance.
    // --------------------------------------------------------------

    fn run_ed_segment(nm: usize, secs: f64, schedule: Schedule, opts: SegmentOpts) -> RunStats {
        let cluster = Cluster::paper_testbed();
        let graph = hetpipe_model::vgg19(32);
        let vws = build_vws(&cluster, &graph, &ed_groups(), nm);
        let shards = ShardMap::build(Placement::Local, &graph, &cluster, &vws[0]);
        run_segment(
            ExecParams {
                cluster: &cluster,
                graph: &graph,
                vws: &vws,
                wsp: WspParams::new(nm, 0),
                shards: &shards,
                sync_transfers: true,
                schedule,
                recompute: RecomputePolicy::None,
            },
            opts,
            SimTime::from_secs(secs),
        )
    }

    #[test]
    fn zero_fault_segment_is_bit_identical_to_run() {
        for schedule in [
            Schedule::HetPipeWave,
            Schedule::FillDrain,
            Schedule::OneFOneB,
        ] {
            let plain = run_ed_sched(4, 0, 10.0, schedule);
            let seg = run_ed_segment(4, 10.0, schedule, SegmentOpts::default());
            assert_eq!(plain.trace.len(), seg.trace.len(), "{schedule}");
            for (a, b) in plain.trace.spans().iter().zip(seg.trace.spans()) {
                assert_eq!(a, b, "{schedule}");
            }
            for (a, b) in plain.vws.iter().zip(&seg.vws) {
                assert_eq!(a.completions, b.completions, "{schedule}");
            }
        }
    }

    #[test]
    fn fault_event_slows_the_pipeline() {
        for schedule in [Schedule::HetPipeWave, Schedule::OneFOneB] {
            let clean = run_ed_segment(4, 20.0, schedule, SegmentOpts::default());
            let faulted = run_ed_segment(
                4,
                20.0,
                schedule,
                SegmentOpts {
                    rate_events: vec![RateEvent {
                        at: SimTime::from_secs(2.0),
                        // Slow VW 0's stage-1 GPU (device 4 hosts ED
                        // group 0's second stage) by x4 — far past the
                        // pipeline bottleneck, so it must bind.
                        target: RateTarget::Gpu(4),
                        rate: 0.25,
                    }],
                    ..SegmentOpts::default()
                },
            );
            let c = clean.vws[0].completions.len();
            let f = faulted.vws[0].completions.len();
            assert!(
                (f as f64) < c as f64 * 0.9,
                "{schedule}: x4 slowdown must cost throughput ({f} vs {c})"
            );
            // Spans on the slowed GPU after the fault are stretched.
            let gpu = faulted.gpu_resources[4];
            let stretched = faulted.trace.spans().iter().any(|s| {
                s.resource == gpu
                    && s.start >= SimTime::from_secs(2.0)
                    && s.duration() > faulted.planned_fwd[0][1]
            });
            assert!(stretched, "{schedule}: no stretched span on the slowed GPU");
        }
    }

    #[test]
    fn lost_gpu_stalls_but_terminates() {
        let faulted = run_ed_segment(
            4,
            15.0,
            Schedule::HetPipeWave,
            SegmentOpts {
                rate_events: vec![RateEvent {
                    at: SimTime::from_secs(3.0),
                    target: RateTarget::Gpu(4),
                    rate: 0.0,
                }],
                ..SegmentOpts::default()
            },
        );
        // VW 0 stops completing shortly after the loss; the run still
        // terminates (no live-lock) and other VWs are eventually
        // throttled by the WSP distance bound, not deadlocked.
        let last = faulted.vws[0].completions.last().copied().unwrap();
        assert!(
            last < SimTime::from_secs(5.0),
            "vw0 kept completing: {last}"
        );
        assert!(faulted.end <= SimTime::from_secs(15.0));
    }

    #[test]
    fn segment_drain_stops_at_wave_boundary() {
        for schedule in [
            Schedule::HetPipeWave,
            Schedule::FillDrain,
            Schedule::OneFOneB,
        ] {
            let seg = run_ed_segment(
                4,
                30.0,
                schedule,
                SegmentOpts {
                    stop_after_mb: Some(8),
                    ..SegmentOpts::default()
                },
            );
            for (i, vw) in seg.vws.iter().enumerate() {
                assert_eq!(
                    vw.completions.len(),
                    8,
                    "{schedule} vw{i}: drain must complete exactly the boundary wave"
                );
                assert_eq!(vw.waves_pushed, 2, "{schedule} vw{i}");
            }
            // The drain ends well before the horizon: that end is the
            // splice point.
            assert!(
                seg.end < SimTime::from_secs(29.0),
                "{schedule}: drain should end early, got {}",
                seg.end
            );
            // No compute span belongs to a past-boundary minibatch.
            for span in seg.trace.spans() {
                if let SpanTag::Forward { mb, .. }
                | SpanTag::Backward { mb, .. }
                | SpanTag::Recompute { mb, .. } = span.tag
                {
                    assert!(mb <= 8, "{schedule}: span for mb {mb} past the boundary");
                }
            }
        }
    }

    #[test]
    fn stream_single_gpu_vw_works() {
        // k = 1 exercises the "backward depends on own forward" path.
        let cluster = Cluster::paper_testbed();
        let graph = hetpipe_model::vgg19(32);
        let groups = vec![vec![DeviceId(0)], vec![DeviceId(1)]];
        let vws = build_vws(&cluster, &graph, &groups, 1);
        let shards = ShardMap::build(Placement::Default, &graph, &cluster, &vws[0]);
        for schedule in [Schedule::FillDrain, Schedule::OneFOneB] {
            let stats = run(
                ExecParams {
                    cluster: &cluster,
                    graph: &graph,
                    vws: &vws,
                    wsp: WspParams::new(1, 0),
                    shards: &shards,
                    sync_transfers: true,
                    schedule,
                    recompute: RecomputePolicy::None,
                },
                SimTime::from_secs(20.0),
            );
            assert!(
                stats.vws[0].completions.len() > 10,
                "{schedule} made no progress on k=1"
            );
        }
    }

    fn span(resource: usize, start: f64, vw: u32, mb: u64) -> Span<SpanTag> {
        Span {
            resource: ResourceId(resource),
            start: SimTime::from_secs(start),
            end: SimTime::from_secs(start + 1.0),
            tag: SpanTag::Forward { vw, stage: 0, mb },
        }
    }

    #[test]
    fn fingerprint_ignores_recording_order() {
        let a = vec![span(0, 0.0, 0, 1), span(1, 2.0, 1, 3), span(0, 5.0, 0, 2)];
        let mut b = a.clone();
        b.reverse();
        assert_eq!(trace_fingerprint(&a), trace_fingerprint(&b));
    }

    #[test]
    fn fingerprint_separates_different_span_sets() {
        let a = vec![span(0, 0.0, 0, 1)];
        let b = vec![span(0, 0.0, 0, 2)];
        let c = vec![span(1, 0.0, 0, 1)];
        assert_ne!(trace_fingerprint(&a), trace_fingerprint(&b));
        assert_ne!(trace_fingerprint(&a), trace_fingerprint(&c));
    }
}
