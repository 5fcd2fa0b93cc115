//! `elastic`: the fault-aware runtime replanning through the plan
//! service.
//!
//! Paper testbed, ResNet-152, boundary-only recompute, wave schedule,
//! equal-distribution allocation. Set-up cold-plans the initial
//! deployment (`HetPipeSystem::build`) and starts a `PlanService` with
//! at most `nproc` workers (and at most 2). One operation is one
//! `runtime::run` under `Policy::Replan`, routed through the service,
//! for one scenario script: seeded chaos scripts generated from the
//! workload seed (drawn until each pass holds a fixed mix of scripts by
//! number of preemptions), plus the canonical lease. Every pass starts from an
//! empty plan cache, so every pass does the same planning work.

use crate::stats::SplitMix;
use crate::trace::Tracer;
use crate::{timed_phase, Args, Collected, Outcome, Setup};
use hetpipe_cluster::Cluster;
use hetpipe_core::{
    AllocationPolicy, HetPipeSystem, Placement, RecomputePolicy, Schedule, SystemConfig, WspParams,
};
use hetpipe_des::SimTime;
use hetpipe_plansvc::{Catalog, PlanService};
use hetpipe_runtime::{
    self as runtime, MonitorConfig, Policy, RuntimeParams, ScenarioEvent, ScenarioScript,
};

/// Simulated horizon of every scenario.
const HORIZON_SECS: f64 = 120.0;

/// Chaos scripts per pass by number of GPU preemptions (the canonical
/// lease makes one more script). Preemptions set most of a scenario's
/// cost (each one ends an epoch and triggers replans), so every seed
/// gets the same mix: about the mix the generator produces unfiltered.
const PREEMPTION_MIX: [(usize, usize); 4] = [(0, 32), (1, 43), (2, 17), (3, 4)];

/// Events per chaos script.
const CHAOS_EVENTS: usize = 4;

/// Upper bound on plan-service workers.
const MAX_WORKERS: usize = 2;

/// Runs the workload.
pub fn run(args: &Args, tracer: &mut Tracer, nproc: usize) -> Collected {
    tracer.on = args.trace;
    let mut setup = Setup::start();
    let cluster = Cluster::paper_testbed();
    let graph = hetpipe_model::resnet152(32);
    let config = SystemConfig {
        policy: AllocationPolicy::EqualDistribution,
        placement: Placement::Default,
        staleness_bound: 0,
        schedule: Schedule::HetPipeWave,
        recompute: RecomputePolicy::BoundaryOnly,
        ..SystemConfig::default()
    };
    setup.attempted += 1;
    let built = tracer.span("system.build", "flat", |_| {
        HetPipeSystem::build(&cluster, &graph, &config)
    });
    let sys = match built {
        Ok(sys) => sys,
        Err(e) => {
            setup.failures.push(format!("initial plan failed: {e}"));
            setup.finish();
            return Collected {
                setup,
                ..Collected::default()
            };
        }
    };
    let workers = nproc.clamp(1, MAX_WORKERS);
    let svc = tracer.span("plansvc.start", "", |_| {
        let mut catalog = Catalog::new();
        catalog.register_model(graph.clone());
        catalog.register_cluster(cluster.clone());
        PlanService::start(catalog, workers)
    });
    setup.finish();
    if args.setup_only {
        svc.shutdown();
        return Collected {
            setup,
            ..Collected::default()
        };
    }

    let mut rng = SplitMix::new(args.seed);
    let gpus = cluster.device_count();
    let nodes = cluster.node_count();
    let mut scripts: Vec<ScenarioScript> = Vec::new();
    for (preemptions, count) in PREEMPTION_MIX {
        let mut drawn = 0;
        while drawn < count {
            let script =
                ScenarioScript::chaos(rng.next_u64(), HORIZON_SECS, gpus, nodes, CHAOS_EVENTS);
            let n = script
                .events
                .iter()
                .filter(|e| matches!(e, ScenarioEvent::GpuPreempted { .. }))
                .count();
            if n == preemptions {
                scripts.push(script);
                drawn += 1;
            }
        }
    }
    scripts.push(ScenarioScript::canonical_lease(
        2,
        HORIZON_SECS * 0.1,
        HORIZON_SECS * 0.6,
    ));

    let client = svc.client();
    let hysteresis = MonitorConfig::default().lease_hysteresis_secs;
    let horizon = SimTime::from_secs(HORIZON_SECS);
    let scenario = |t: &mut Tracer, i: usize| -> (Outcome, Vec<String>) {
        let script = &scripts[i];
        let report = t.span("runtime.run", &script.name, |_| {
            runtime::run(
                RuntimeParams {
                    cluster: &cluster,
                    graph: &graph,
                    vws: sys.virtual_workers().to_vec(),
                    wsp: WspParams::new(sys.nm(), 0),
                    placement: config.placement,
                    sync_transfers: config.sync_transfers,
                    schedule: config.schedule,
                    recompute: config.recompute,
                    script: script.clone(),
                    policy: Policy::Replan,
                    monitor: MonitorConfig::default(),
                    max_reactions: 8,
                    planner: Some(client.clone()),
                },
                horizon,
            )
        });
        let mut failures = Vec::new();
        let unsound = report.epochs.iter().filter(|e| !e.audit.is_sound()).count();
        if unsound > 0 {
            failures.push(format!("{}: {unsound} epoch audits violated", script.name));
        }
        // Liveness: after the last preemption has settled (plus the
        // controller's hysteresis and a splice's worth of slack) every
        // virtual worker must be completing minibatches again.
        let settle = script
            .lease_transitions()
            .iter()
            .filter(|t| !t.available)
            .map(|t| t.at)
            .max()
            .map_or(SimTime::ZERO, |t| t + SimTime::from_secs(hysteresis + 3.0));
        if settle < horizon {
            for (vw, done) in report.completions.iter().enumerate() {
                if !done.iter().any(|&t| t >= settle) {
                    failures.push(format!(
                        "{}: VW {vw} completed nothing after {:.1} s",
                        script.name,
                        settle.as_secs()
                    ));
                }
            }
        }
        let outcome = Outcome {
            spans: report.trace.len() as u64,
            completed: report.total_completed() as u64,
            images_per_s: report.throughput_images_per_sec(config.warmup_fraction),
            violations: unsound as u64,
            epochs: report.epochs.len() as u64,
            signals: report.signals.len() as u64,
            ..Outcome::default()
        };
        (outcome, failures)
    };

    // Cache counters of the warm-up pass (the first `start_pass`
    // call), which runs the scripts in a fixed order.
    let mut passes = 0usize;
    let mut first_pass: Option<(u64, u64, u64)> = None;
    let timed = timed_phase(
        args,
        tracer,
        scripts.len(),
        || {
            if passes == 1 {
                first_pass = Some(svc.cache_stats());
            }
            passes += 1;
            svc.clear_cache();
        },
        |i, t| scenario(t, i),
    );
    drop(client);
    let (hits, misses, publishes) = first_pass.unwrap_or_else(|| svc.cache_stats());
    svc.shutdown();

    let mut collected = Collected::default();
    if args.trace {
        let per_pass = |f: fn(&Outcome) -> u64| timed.outcomes.iter().map(f).sum::<u64>() as f64;
        let mut put = |name: &str, v: f64| {
            collected.layers.insert(name.to_string(), v);
        };
        put("exec.spans", per_pass(|o| o.spans));
        put("audit.violations", per_pass(|o| o.violations));
        put("model.mb_completed", per_pass(|o| o.completed));
        put("runtime.epochs", per_pass(|o| o.epochs));
        put("runtime.signals", per_pass(|o| o.signals));
        put("plansvc.hits", hits as f64);
        put("plansvc.misses", misses as f64);
        put("plansvc.publishes", publishes as f64);
        if hits + misses > 0 {
            put("plansvc.hit_ratio", hits as f64 / (hits + misses) as f64);
        }
        let plans = tracer.secs_of("system.build", Some("flat"));
        if let Some(&p) = plans.first() {
            put("system.plan_ms.flat", p * 1e3);
        }
    }
    collected.notes.push(format!(
        "{} scenarios per pass (seeded chaos + canonical lease), horizon {HORIZON_SECS} s, \
         {workers} plan-service workers; first pass: {hits} hits / {misses} misses / \
         {publishes} publishes",
        scripts.len()
    ));
    collected.setup = setup;
    collected.timed = Some(timed);
    collected
}
