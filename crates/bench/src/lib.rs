//! Shared utilities for the experiment harnesses.
//!
//! Every experiment binary in this crate regenerates one table or
//! figure of the paper (each bin's module doc names it and the shape
//! the paper reports) and prints a human-readable table plus, when
//! `--json <path>` is given, a machine-readable JSON dump.

use hetpipe_cluster::{Cluster, DeviceId, GpuKind};
use hetpipe_core::{AllocationPolicy, HetPipeSystem, Placement, SystemConfig, SystemReport};
use hetpipe_des::SimTime;
use hetpipe_model::ModelGraph;

/// Default simulated horizon for throughput experiments.
pub const HORIZON_SECS: f64 = 60.0;

/// Prints a fixed-width table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let widths: Vec<usize> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| {
            rows.iter()
                .map(|r| r.get(i).map_or(0, |c| c.len()))
                .chain(std::iter::once(h.len()))
                .max()
                .unwrap_or(0)
        })
        .collect();
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        println!("{}", s.trim_end());
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for r in rows {
        line(r.clone());
    }
}

/// Writes a JSON value to the path given after a `--json` CLI flag, if
/// present.
pub fn maybe_write_json(value: &serde_json::Value) {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--json") {
        if let Some(path) = args.get(i + 1) {
            std::fs::write(
                path,
                serde_json::to_string_pretty(value).expect("serializable"),
            )
            .unwrap_or_else(|e| eprintln!("cannot write {path}: {e}"));
            println!("(json written to {path})");
        }
    }
}

/// The seven single-VW configurations of Figure 3 as device lists on
/// the paper testbed.
pub fn fig3_configs() -> Vec<(&'static str, Vec<DeviceId>)> {
    vec![
        (
            "VVVV",
            vec![DeviceId(0), DeviceId(1), DeviceId(2), DeviceId(3)],
        ),
        (
            "RRRR",
            vec![DeviceId(4), DeviceId(5), DeviceId(6), DeviceId(7)],
        ),
        (
            "GGGG",
            vec![DeviceId(8), DeviceId(9), DeviceId(10), DeviceId(11)],
        ),
        (
            "QQQQ",
            vec![DeviceId(12), DeviceId(13), DeviceId(14), DeviceId(15)],
        ),
        (
            "VRGQ",
            vec![DeviceId(0), DeviceId(4), DeviceId(8), DeviceId(12)],
        ),
        (
            "VVQQ",
            vec![DeviceId(0), DeviceId(1), DeviceId(12), DeviceId(13)],
        ),
        (
            "RRGG",
            vec![DeviceId(4), DeviceId(5), DeviceId(8), DeviceId(9)],
        ),
    ]
}

/// Builds and runs one HetPipe configuration, returning `(Nm, report)`.
pub fn run_hetpipe(
    cluster: &Cluster,
    graph: &ModelGraph,
    policy: AllocationPolicy,
    placement: Placement,
    d: usize,
    nm_override: Option<usize>,
    horizon_secs: f64,
) -> Result<(usize, SystemReport), String> {
    let config = SystemConfig {
        policy,
        placement,
        staleness_bound: d,
        nm_override,
        ..SystemConfig::default()
    };
    let sys = HetPipeSystem::build(cluster, graph, &config).map_err(|e| e.to_string())?;
    let report = sys.run(SimTime::from_secs(horizon_secs));
    Ok((sys.nm(), report))
}

/// The Table-4 GPU sets: `(label, node kinds)` in the paper's order.
pub fn table4_sets() -> Vec<(&'static str, Vec<GpuKind>)> {
    use GpuKind::*;
    vec![
        ("4 GPUs 4[V]", vec![TitanV]),
        ("8 GPUs 4[VR]", vec![TitanV, TitanRtx]),
        ("12 GPUs 4[VRQ]", vec![TitanV, TitanRtx, QuadroP4000]),
        (
            "16 GPUs 4[VRQG]",
            vec![TitanV, TitanRtx, QuadroP4000, Rtx2060],
        ),
    ]
}

/// Formats images/second for a table cell.
pub fn fmt_ips(v: f64) -> String {
    format!("{v:.0}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_configs_match_labels() {
        let cluster = Cluster::paper_testbed();
        for (label, devices) in fig3_configs() {
            let derived: String = devices.iter().map(|&d| cluster.kind_of(d).code()).collect();
            assert_eq!(derived, label);
        }
    }

    #[test]
    fn table4_sets_grow() {
        let sets = table4_sets();
        assert_eq!(sets.len(), 4);
        for (i, (_, kinds)) in sets.iter().enumerate() {
            assert_eq!(kinds.len(), i + 1);
        }
    }
}
