//! `vw-scale`: the executor's cross-VW synchronization path at 16,
//! 64 and 256 virtual workers.
//!
//! Each size is a cluster of 4-GPU nodes whose kinds cycle through the
//! four testbed GPUs. The inputs are fixed; the workload seed only
//! orders the operations within each pass. Node-partition allocation makes every node one virtual
//! worker; ResNet-50, wave schedule, default shard placement, `D = 0`.
//! Set-up cold-plans the three systems. One operation simulates one
//! size at its own horizon (simulated work shrinks as the fleet grows,
//! so every operation costs about the same), builds the report and
//! audits occupancy.

use crate::trace::Tracer;
use crate::{common_layers, timed_phase, Args, Collected, Outcome, Setup};
use hetpipe_cluster::{Cluster, DeviceId, GpuKind, Node};
use hetpipe_core::exec::{self, ExecParams};
use hetpipe_core::{
    AllocationPolicy, HetPipeSystem, OccupancyAudit, Placement, RecomputePolicy, Schedule,
    SystemConfig, SystemReport, WspParams,
};
use hetpipe_des::SimTime;
use hetpipe_model::resnet50;

/// (virtual workers, simulated horizon in seconds, metric suffix).
const SIZES: [(usize, f64, &str); 3] = [(16, 128.0, "v16"), (64, 32.0, "v64"), (256, 8.0, "v256")];

/// Node kinds, assigned round-robin.
const KINDS: [GpuKind; 4] = [
    GpuKind::TitanV,
    GpuKind::TitanRtx,
    GpuKind::Rtx2060,
    GpuKind::QuadroP4000,
];

/// Runs the workload.
pub fn run(args: &Args, tracer: &mut Tracer) -> Collected {
    tracer.on = args.trace;
    let mut setup = Setup::start();
    let clusters: Vec<Cluster> = SIZES
        .iter()
        .map(|&(vws, _, _)| {
            let mut cluster = Cluster::new();
            for i in 0..vws {
                cluster.add_node(Node::new(KINDS[i % KINDS.len()], 4));
            }
            cluster
        })
        .collect();
    let graph = resnet50(32);
    let config = SystemConfig {
        policy: AllocationPolicy::NodePartition,
        placement: Placement::Default,
        staleness_bound: 0,
        schedule: Schedule::HetPipeWave,
        recompute: RecomputePolicy::None,
        ..SystemConfig::default()
    };
    let mut systems = Vec::new();
    for (cluster, &(vws, horizon_secs, key)) in clusters.iter().zip(&SIZES) {
        setup.attempted += 1;
        let built = tracer.span("system.build", "flat", |_| {
            HetPipeSystem::build(cluster, &graph, &config)
        });
        match built {
            Ok(sys) if sys.virtual_workers().len() == vws => {
                systems.push((cluster, sys, key, horizon_secs))
            }
            Ok(sys) => setup.failures.push(format!(
                "{key}: planned {} virtual workers",
                sys.virtual_workers().len()
            )),
            Err(e) => setup.failures.push(format!("{key}: plan failed: {e}")),
        }
    }
    setup.finish();
    if args.setup_only {
        return Collected {
            setup,
            ..Collected::default()
        };
    }

    let simulate = |t: &mut Tracer, i: usize| -> (Outcome, Vec<String>) {
        let (cluster, sys, key, horizon_secs) = &systems[i];
        let vws = sys.virtual_workers();
        let stats = t.span("exec.run", key, |_| {
            exec::run(
                ExecParams {
                    cluster,
                    graph: &graph,
                    vws,
                    wsp: WspParams::new(sys.nm(), 0),
                    shards: sys.shards(),
                    sync_transfers: true,
                    schedule: config.schedule,
                    recompute: config.recompute,
                },
                SimTime::from_secs(*horizon_secs),
            )
        });
        let warmup = SimTime::from_secs(horizon_secs * config.warmup_fraction);
        let devices: Vec<Vec<DeviceId>> = vws.iter().map(|v| v.devices.clone()).collect();
        let report = t.span("metrics.report", key, |_| {
            SystemReport::from_stats(&stats, cluster, graph.batch_size, warmup, &devices)
        });
        let audit = t.span("audit.measure", key, |_| {
            OccupancyAudit::measure(&stats, vws, &config.schedule, sys.nm())
        });
        let failures: Vec<String> = audit
            .violations()
            .into_iter()
            .map(|v| format!("{key}: {v}"))
            .collect();
        let outcome = Outcome {
            events: stats.events,
            spans: stats.trace.len() as u64,
            completed: report.minibatches_per_vw.iter().sum(),
            images_per_s: report.throughput_images_per_sec(),
            pull_wait_s: report.total_pull_wait_secs(),
            sync_bytes_inter: report.sync_bytes_inter,
            act_bytes_inter: report.act_bytes_inter,
            violations: failures.len() as u64,
            ..Outcome::default()
        };
        (outcome, failures)
    };
    let timed = timed_phase(args, tracer, systems.len(), || {}, |i, t| simulate(t, i));

    let mut collected = Collected::default();
    if args.trace {
        common_layers(tracer, &timed, &mut collected.layers);
        let mut ns = Vec::new();
        for (i, (_, _, key, _)) in systems.iter().enumerate() {
            let secs: f64 = tracer.secs_of("exec.run", Some(key)).iter().sum();
            let events = timed.outcomes[i].events as f64 * timed.traced_passes() as f64;
            let v = secs * 1e9 / events;
            ns.push(v);
            collected
                .layers
                .insert(format!("exec.ns_per_event.{key}"), v);
        }
        if let (Some(first), Some(last)) = (ns.first(), ns.last()) {
            // ev/s at 256 VWs ÷ ev/s at 16 VWs.
            collected
                .layers
                .insert("exec.flatness".into(), first / last);
            collected.notes.push(format!(
                "exec.flatness base: {:.0} ev/s at 16 VWs ({:.1} ns/event)",
                1e9 / first,
                first
            ));
        }
    }
    for ((_, sys, key, horizon_secs), o) in systems.iter().zip(&timed.outcomes) {
        collected.notes.push(format!(
            "{key}: Nm {} horizon {horizon_secs} s, {} events per op",
            sys.nm(),
            o.events
        ));
    }
    collected.setup = setup;
    collected.timed = Some(timed);
    collected
}
