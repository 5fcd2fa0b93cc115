//! `schedule-sweep`: the standing schedule matrix.
//!
//! {paper testbed, 4×TITAN V, 4×RTX 2060} × {VGG-19, ResNet-152} ×
//! `Schedule::ALL` × recompute {off, on}, equal-distribution
//! allocation, local shard placement, `D = 0`: 60 configurations.
//! Set-up cold-plans every configuration (`HetPipeSystem::build`, with
//! the order search) and certifies it (`verify_deadlock_free` and
//! `structural_occupancy`). One operation simulates one configuration
//! at a fixed horizon (`exec::run`), builds its report
//! (`SystemReport::from_stats`) and audits it
//! (`OccupancyAudit::measure`), then checks the measured peaks
//! against the structural bounds (`merge_measured` + `check_bounds`).

use crate::stats::median;
use crate::trace::Tracer;
use crate::{common_layers, timed_phase, Args, Collected, Outcome, Setup};
use hetpipe_cluster::{Cluster, DeviceId, GpuKind};
use hetpipe_core::exec::{self, ExecParams};
use hetpipe_core::{
    AllocationPolicy, HetPipeSystem, OccupancyAudit, PipelineSchedule, Placement, RecomputePolicy,
    Schedule, SystemConfig, SystemReport, VirtualWorker, WspParams,
};
use hetpipe_des::{check_bounds, OccupancyBound, SimTime};
use hetpipe_model::memory::nm_saturation_limit;
use hetpipe_model::{resnet152, vgg19, ModelGraph};
use hetpipe_partition::{max_feasible_nm_with, PartitionProblem, PartitionSolver};
use hetpipe_verify::{structural_occupancy, verify_deadlock_free};

/// Simulated horizon of every operation.
const HORIZON_SECS: f64 = 200.0;

/// Repeats of each planner call replayed in a traced run.
const REPLAYS: usize = 3;

/// Short label of a schedule.
fn schedule_key(schedule: Schedule) -> &'static str {
    match schedule {
        Schedule::HetPipeWave => "wave",
        Schedule::FillDrain => "fill-drain",
        Schedule::OneFOneB => "1f1b",
        Schedule::Interleaved1F1B {
            composite: false, ..
        } => "interleaved-depth",
        Schedule::Interleaved1F1B {
            composite: true, ..
        } => "interleaved",
    }
}

/// Label of a plan: flat pipelines vs interleaved (co-located chunks).
fn plan_kind(schedule: Schedule) -> &'static str {
    if schedule.colocated_stages() > 1 {
        "interleaved"
    } else {
        "flat"
    }
}

struct Cell<'a> {
    label: String,
    cluster: &'a Cluster,
    graph: &'a ModelGraph,
    sys: HetPipeSystem<'a>,
    schedule: Schedule,
    recompute: RecomputePolicy,
    /// Structural occupancy bounds of VW 0 from the certificate pass.
    bounds: Vec<OccupancyBound>,
}

/// Certifies one planned configuration; returns its structural bounds.
fn certify(
    tracer: &mut Tracer,
    sys: &HetPipeSystem<'_>,
    schedule: Schedule,
    recompute: RecomputePolicy,
    label: &str,
    failures: &mut Vec<String>,
) -> Vec<OccupancyBound> {
    let vws = sys.virtual_workers();
    let k_gpus = vws[0].stages() / schedule.colocated_stages();
    let wsp = WspParams::new(sys.nm(), 0);
    let max_mb = (sys.nm() * (6 + 2 * k_gpus)) as u64;
    let proof = tracer.span("verify.deadlock_free", label, |_| {
        verify_deadlock_free(&schedule, k_gpus, wsp, recompute, max_mb, vws.len())
    });
    match proof {
        Ok(p) if p.wave_period.is_none() => {
            failures.push(format!("{label}: deadlock certificate has no wave period"))
        }
        Ok(_) => {}
        Err(e) => failures.push(format!("{label}: deadlock certificate failed: {e}")),
    }
    let report = tracer.span("verify.structural_occupancy", label, |_| {
        structural_occupancy(&schedule, k_gpus, wsp, recompute, max_mb)
    });
    if let Err(errs) = check_bounds(&report.bounds) {
        failures.extend(errs.into_iter().map(|e| format!("{label}: {e}")));
    }
    report.bounds
}

/// Replays the planner's public calls on a planned virtual worker:
/// the final partition solve and the `Max_m` search. The replayed
/// partition must equal the planned one.
fn replay_planner(tracer: &mut Tracer, cell: &Cell<'_>, vw: &VirtualWorker) -> Option<String> {
    let gpus: Vec<_> = vw
        .devices
        .iter()
        .map(|&d| cell.cluster.spec_of(d))
        .collect();
    let links = VirtualWorker::links(cell.cluster, &vw.devices);
    let limit = nm_saturation_limit(vw.devices.len());
    let mut mismatch = None;
    for _ in 0..REPLAYS {
        let problem = PartitionProblem::with_schedule(
            cell.graph,
            gpus.clone(),
            links.clone(),
            vw.nm,
            cell.schedule,
        )
        .with_recompute(cell.recompute);
        let plan = tracer.span("partition.solve", &cell.label, |_| {
            PartitionSolver::solve(&problem)
        });
        if plan.ok().map(|p| p.ranges).as_ref() != Some(&vw.plan.ranges) {
            mismatch = Some(format!("{}: replayed partition differs", cell.label));
        }
        let maxm = tracer.span("partition.max_feasible_nm", &cell.label, |_| {
            max_feasible_nm_with(
                cell.graph,
                &gpus,
                &links,
                limit,
                cell.schedule,
                cell.recompute,
            )
        });
        if maxm.is_none_or(|(m, _)| m < vw.nm) {
            mismatch = Some(format!(
                "{}: replayed Max_m below the planned Nm",
                cell.label
            ));
        }
    }
    mismatch
}

/// Simulates, reports and audits one configuration.
fn simulate(tracer: &mut Tracer, cell: &Cell<'_>) -> (Outcome, Vec<String>) {
    let sys = &cell.sys;
    let vws = sys.virtual_workers();
    let horizon = SimTime::from_secs(HORIZON_SECS);
    let key = schedule_key(cell.schedule);
    let stats = tracer.span("exec.run", key, |_| {
        exec::run(
            ExecParams {
                cluster: cell.cluster,
                graph: cell.graph,
                vws,
                wsp: WspParams::new(sys.nm(), 0),
                shards: sys.shards(),
                sync_transfers: true,
                schedule: cell.schedule,
                recompute: cell.recompute,
            },
            horizon,
        )
    });
    let warmup = SimTime::from_secs(HORIZON_SECS * SystemConfig::default().warmup_fraction);
    let devices: Vec<Vec<DeviceId>> = vws.iter().map(|v| v.devices.clone()).collect();
    let report = tracer.span("metrics.report", key, |_| {
        SystemReport::from_stats(
            &stats,
            cell.cluster,
            cell.graph.batch_size,
            warmup,
            &devices,
        )
    });
    let audit = tracer.span("audit.measure", key, |_| {
        OccupancyAudit::measure(&stats, vws, &cell.schedule, sys.nm())
    });
    let mut failures: Vec<String> = audit
        .violations()
        .into_iter()
        .map(|v| format!("{}: {v}", cell.label))
        .collect();
    let violations = failures.len() as u64;
    let mut bounds = cell.bounds.clone();
    audit.merge_measured(&mut bounds);
    if !bounds.iter().any(|b| b.measured.is_some()) {
        failures.push(format!("{}: no measured peak merged", cell.label));
    }
    if let Err(errs) = check_bounds(&bounds) {
        failures.extend(errs.into_iter().map(|e| format!("{}: {e}", cell.label)));
    }
    let outcome = Outcome {
        events: stats.events,
        spans: stats.trace.len() as u64,
        completed: report.minibatches_per_vw.iter().sum(),
        images_per_s: report.throughput_images_per_sec(),
        pull_wait_s: report.total_pull_wait_secs(),
        sync_bytes_inter: report.sync_bytes_inter,
        act_bytes_inter: report.act_bytes_inter,
        violations,
        ..Outcome::default()
    };
    (outcome, failures)
}

/// Runs the workload.
pub fn run(args: &Args, tracer: &mut Tracer) -> Collected {
    tracer.on = args.trace;
    let mut setup = Setup::start();
    let clusters: Vec<(&str, Cluster)> = vec![
        ("paper", Cluster::paper_testbed()),
        ("titanv", Cluster::testbed_subset(&[GpuKind::TitanV; 4])),
        ("rtx2060", Cluster::testbed_subset(&[GpuKind::Rtx2060; 4])),
    ];
    let models: Vec<(&str, ModelGraph)> = vec![("vgg19", vgg19(32)), ("resnet152", resnet152(32))];
    let mut cells: Vec<Cell<'_>> = Vec::new();
    for (cluster_name, cluster) in &clusters {
        for (model_name, graph) in &models {
            for schedule in Schedule::ALL {
                for recompute in RecomputePolicy::ALL {
                    let label = format!(
                        "{cluster_name}/{model_name}/{}/recompute-{}",
                        schedule_key(schedule),
                        if recompute.is_on() { "on" } else { "off" }
                    );
                    let config = SystemConfig {
                        policy: AllocationPolicy::EqualDistribution,
                        placement: Placement::Local,
                        staleness_bound: 0,
                        schedule,
                        recompute,
                        ..SystemConfig::default()
                    };
                    setup.attempted += 1;
                    let built = tracer.span("system.build", plan_kind(schedule), |_| {
                        HetPipeSystem::build(cluster, graph, &config)
                    });
                    let sys = match built {
                        Ok(sys) => sys,
                        Err(e) => {
                            setup.failures.push(format!("{label}: plan failed: {e}"));
                            continue;
                        }
                    };
                    let bounds = certify(
                        tracer,
                        &sys,
                        schedule,
                        recompute,
                        &label,
                        &mut setup.failures,
                    );
                    cells.push(Cell {
                        label,
                        cluster,
                        graph,
                        sys,
                        schedule,
                        recompute,
                        bounds,
                    });
                }
            }
        }
    }
    setup.finish();
    if args.setup_only {
        return Collected {
            setup,
            ..Collected::default()
        };
    }

    if args.trace {
        for cell in &cells {
            setup.attempted += 1;
            if let Some(m) = replay_planner(tracer, cell, &cell.sys.virtual_workers()[0]) {
                setup.failures.push(m);
            }
        }
    }

    let timed = timed_phase(
        args,
        tracer,
        cells.len(),
        || {},
        |i, t| simulate(t, &cells[i]),
    );

    let mut collected = Collected::default();
    if args.trace {
        common_layers(tracer, &timed, &mut collected.layers);
        for schedule in Schedule::ALL {
            let key = schedule_key(schedule);
            let runs = tracer.secs_of("exec.run", Some(key));
            if !runs.is_empty() {
                collected
                    .layers
                    .insert(format!("exec.run_ms.{key}"), median(&runs) * 1e3);
            }
        }
    }
    collected.notes.push(format!(
        "{} configurations planned and certified, horizon {HORIZON_SECS} s",
        cells.len()
    ));
    collected.setup = setup;
    collected.timed = Some(timed);
    collected
}
