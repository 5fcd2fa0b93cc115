//! Ablations of HetPipe's design choices:
//!
//! 1. **Partitioner** — the min–max DP vs an equal-layer-count split
//!    vs the greedy binary-search variant (planned bottleneck and
//!    simulated throughput).
//! 2. **Wave-aggregated pushes** — parameter bytes pushed per wave vs
//!    the per-minibatch pushing WSP avoids (Section 5: "significantly
//!    reduce the communication overhead").
//! 3. **Stage-order search** — throughput with and without searching
//!    GPU orders inside heterogeneous virtual workers.

use hetpipe_bench::{maybe_write_json, print_table, run_hetpipe, HORIZON_SECS};
use hetpipe_cluster::{Cluster, DeviceId};
use hetpipe_core::vw::VirtualWorker;
use hetpipe_core::{AllocationPolicy, HetPipeSystem, Placement, SystemConfig};
use hetpipe_des::SimTime;
use hetpipe_partition::{PartitionProblem, PartitionSolver};
use serde_json::json;

fn main() {
    let cluster = Cluster::paper_testbed();
    let mut dump = Vec::new();

    // --- Ablation 1: partition quality on a heterogeneous VW (VRGQ).
    let devices: Vec<DeviceId> = vec![DeviceId(0), DeviceId(4), DeviceId(8), DeviceId(12)];
    let gpus: Vec<_> = devices.iter().map(|&d| cluster.spec_of(d)).collect();
    let links = VirtualWorker::links(&cluster, &devices);
    let mut rows = Vec::new();
    for (model_name, graph) in [
        ("ResNet-152", hetpipe_model::resnet152(32)),
        ("VGG-19", hetpipe_model::vgg19(32)),
    ] {
        let problem = PartitionProblem::new(&graph, gpus.clone(), links.clone(), 1);
        let dp = PartitionSolver::solve(&problem).expect("feasible");
        let greedy = PartitionSolver::solve_greedy(&problem).expect("feasible");
        // Naive equal-layer-count split.
        let k = 4;
        let per = graph.len() / k;
        let naive_bneck = {
            let model = hetpipe_partition::StageCostModel::new(&problem);
            (0..k)
                .map(|s| {
                    let lo = s * per;
                    let hi = if s == k - 1 {
                        graph.len()
                    } else {
                        (s + 1) * per
                    };
                    model.stage_secs(s, lo..hi)
                })
                .fold(0.0, f64::max)
        };
        rows.push(vec![
            model_name.to_string(),
            format!("{:.3}s", dp.bottleneck_secs),
            format!("{:.3}s", greedy.bottleneck_secs),
            format!("{naive_bneck:.3}s"),
            format!("{:.2}x", naive_bneck / dp.bottleneck_secs),
        ]);
        dump.push(json!({
            "ablation": "partitioner",
            "model": model_name,
            "dp_bottleneck": dp.bottleneck_secs,
            "greedy_bottleneck": greedy.bottleneck_secs,
            "naive_bottleneck": naive_bneck,
        }));
    }
    print_table(
        "Ablation 1: VRGQ pipeline bottleneck by partitioner (Nm=1)",
        &[
            "model",
            "min-max DP",
            "greedy binsearch",
            "equal layers",
            "naive/DP",
        ],
        &rows,
    );

    // --- Ablation 2: wave-aggregated vs per-minibatch pushes.
    let mut rows = Vec::new();
    for (model_name, graph) in [
        ("ResNet-152", hetpipe_model::resnet152(32)),
        ("VGG-19", hetpipe_model::vgg19(32)),
    ] {
        let (nm, report) = run_hetpipe(
            &cluster,
            &graph,
            AllocationPolicy::EqualDistribution,
            Placement::Default,
            0,
            None,
            HORIZON_SECS,
        )
        .expect("builds");
        let per_wave = report.sync_bytes_inter + report.sync_bytes_intra;
        // Per-minibatch pushing would move Nm times the bytes.
        rows.push(vec![
            format!("{model_name} (Nm={nm})"),
            format!("{:.1} GB", per_wave as f64 / 1e9),
            format!("{:.1} GB", per_wave as f64 * nm as f64 / 1e9),
            format!("{nm}x"),
        ]);
        dump.push(json!({
            "ablation": "wave_aggregation",
            "model": model_name,
            "nm": nm,
            "sync_bytes_wave": per_wave,
        }));
    }
    print_table(
        "Ablation 2: sync traffic, wave-aggregated vs per-minibatch pushes (60s, ED)",
        &["model", "WSP waves", "per-minibatch", "saving"],
        &rows,
    );

    // --- Ablation 3: stage-order search inside heterogeneous VWs.
    let mut rows = Vec::new();
    for (model_name, graph) in [
        ("ResNet-152", hetpipe_model::resnet152(32)),
        ("VGG-19", hetpipe_model::vgg19(32)),
    ] {
        let mut ips = Vec::new();
        for order_search in [true, false] {
            let config = SystemConfig {
                policy: AllocationPolicy::HybridDistribution,
                placement: Placement::Default,
                staleness_bound: 0,
                order_search,
                ..SystemConfig::default()
            };
            let sys = HetPipeSystem::build(&cluster, &graph, &config).expect("builds");
            let r = sys.run(SimTime::from_secs(HORIZON_SECS));
            ips.push(r.throughput_images_per_sec());
        }
        rows.push(vec![
            model_name.to_string(),
            format!("{:.0}", ips[0]),
            format!("{:.0}", ips[1]),
            format!("{:+.1}%", (ips[0] / ips[1] - 1.0) * 100.0),
        ]);
        dump.push(json!({
            "ablation": "order_search",
            "model": model_name,
            "with": ips[0],
            "without": ips[1],
        }));
    }
    print_table(
        "Ablation 3: stage-order search (HD policy)",
        &["model", "with search", "without", "gain"],
        &rows,
    );

    maybe_write_json(&json!(dump));
}
