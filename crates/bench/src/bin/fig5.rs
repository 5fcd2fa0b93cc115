//! Figure 5: ResNet-152 top-1 accuracy vs wall-clock time — Horovod
//! (12 GPUs) vs HetPipe (12 GPUs) vs HetPipe (16 GPUs), D = 0.
//!
//! Composition methodology: the discrete-event
//! simulator provides *updates per second* for each configuration on
//! the simulated testbed; the real threaded trainer provides *accuracy
//! per update* under the same synchronization semantics (BSP with 12
//! workers for Horovod, WSP with 4 pipelined virtual workers for
//! HetPipe). `accuracy(t) = curve(throughput x t)`.
//!
//! Expected shape (paper): HetPipe-12 reaches the target ~35% faster
//! than Horovod-12; adding 4 whimpy RTX 2060s (HetPipe-16) makes it
//! ~39% faster (to 74% top-1 on ImageNet).

use hetpipe_allreduce::HorovodBaseline;
use hetpipe_bench::{maybe_write_json, print_table, run_hetpipe, HORIZON_SECS};
use hetpipe_cluster::{Cluster, GpuKind};
use hetpipe_core::convergence::{time_to_accuracy, AccuracyCurve};
use hetpipe_core::{AllocationPolicy, Placement};
use hetpipe_train::{train, Dataset, Mode, TrainConfig};
use serde_json::json;

/// Targets to report (the paper uses a single 74% top-1 target; we
/// report several to show where the wall-clock advantage holds on the
/// synthetic task).
const TARGETS: [f64; 3] = [0.50, 0.60, 0.70];
const TOTAL_UPDATES: u64 = 16_000;

fn curve_of(mode: Mode, workers: usize, dataset: &Dataset) -> AccuracyCurve {
    let config = TrainConfig {
        mode,
        workers,
        dims: vec![24, 64, 32, 8],
        batch: 32,
        lr: 0.03,
        momentum: 0.0,
        steps_per_worker: TOTAL_UPDATES / workers as u64,
        seed: 42,
        snapshot_every: 100,
    };
    let out = train(dataset, &config);
    AccuracyCurve::new(out.curve_steps, out.curve_accuracy)
}

fn main() {
    let dataset = Dataset::teacher(24, 8, 32, 8192, 2048, 7);

    // Throughputs (updates/second) from the simulator.
    let cluster16 = Cluster::paper_testbed();
    let cluster12 =
        Cluster::testbed_subset(&[GpuKind::TitanV, GpuKind::TitanRtx, GpuKind::QuadroP4000]);

    let graph = hetpipe_model::resnet152(32);
    let horovod = HorovodBaseline::evaluate_all(&cluster16, &graph)
        .expect("Horovod runs on the 12 capable GPUs");
    let horovod_ups = horovod.images_per_sec / 32.0;

    let (nm12, rep12) = run_hetpipe(
        &cluster12,
        &graph,
        AllocationPolicy::EqualDistribution,
        Placement::Local,
        0,
        None,
        HORIZON_SECS,
    )
    .expect("HetPipe-12 builds");
    let (nm16, rep16) = run_hetpipe(
        &cluster16,
        &graph,
        AllocationPolicy::EqualDistribution,
        Placement::Local,
        0,
        None,
        HORIZON_SECS,
    )
    .expect("HetPipe-16 builds");

    // Statistical efficiency from the real threaded trainer.
    let bsp_curve = curve_of(Mode::Bsp, 12, &dataset);
    let wsp12_curve = curve_of(Mode::Wsp { nm: nm12, d: 0 }, 4, &dataset);
    let wsp16_curve = curve_of(Mode::Wsp { nm: nm16, d: 0 }, 4, &dataset);

    let series = [
        ("Horovod (12 GPUs)", horovod_ups, &bsp_curve),
        (
            "HetPipe (12 GPUs)",
            rep12.throughput_minibatches_per_sec(),
            &wsp12_curve,
        ),
        (
            "HetPipe (16 GPUs)",
            rep16.throughput_minibatches_per_sec(),
            &wsp16_curve,
        ),
    ];

    let mut rows = Vec::new();
    let mut dump = Vec::new();
    for (label, ups, curve) in series {
        let final_acc = *curve.accuracy.last().expect("non-empty curve");
        let mut cells = vec![
            label.to_string(),
            format!("{ups:.1}"),
            format!("{final_acc:.3}"),
        ];
        let mut times = Vec::new();
        for target in TARGETS {
            let t = time_to_accuracy(ups, curve, target);
            let h = time_to_accuracy(horovod_ups, &bsp_curve, target);
            let cell = match (t, h) {
                (Some(t), Some(h)) => format!("{t:.0}s ({:+.0}%)", (1.0 - t / h) * 100.0),
                (Some(t), None) => format!("{t:.0}s"),
                _ => "never".to_string(),
            };
            cells.push(cell);
            times.push(t);
        }
        rows.push(cells);
        dump.push(json!({
            "config": label,
            "updates_per_sec": ups,
            "final_accuracy": final_acc,
            "times_to_targets": times,
            "targets": TARGETS,
        }));
    }
    print_table(
        "Figure 5 (ResNet-152 convergence): time to target (vs Horovod)",
        &[
            "configuration",
            "updates/s",
            "final acc",
            "to 50%",
            "to 60%",
            "to 70%",
        ],
        &rows,
    );
    println!(
        "\n(nm12 = {nm12}, nm16 = {nm16}.) Paper reference: HetPipe-12 converges ~35% faster \
         than Horovod-12, HetPipe-16 ~39% faster (to 74% top-1 on ImageNet)."
    );
    maybe_write_json(&json!(dump));
}
