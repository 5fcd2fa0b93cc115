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

/// A number type a command-line flag may take: it parses from text
/// and knows which of its values are positive.
pub trait PositiveNumber: std::str::FromStr + Copy {
    /// True for a finite value greater than zero.
    fn is_positive(self) -> bool;
}

impl PositiveNumber for f64 {
    fn is_positive(self) -> bool {
        self.is_finite() && self > 0.0
    }
}

impl PositiveNumber for u64 {
    fn is_positive(self) -> bool {
        self > 0
    }
}

/// A numeric command-line flag with no value or a value that is not a
/// positive number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlagError {
    /// The flag was the last argument.
    Missing {
        /// The flag, e.g. `--horizon`.
        flag: String,
    },
    /// The value is unparsable, NaN, infinite, negative or zero.
    NotPositive {
        /// The flag, e.g. `--horizon`.
        flag: String,
        /// The value as given.
        value: String,
    },
}

impl std::fmt::Display for FlagError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlagError::Missing { flag } => write!(f, "{flag} needs a value"),
            FlagError::NotPositive { flag, value } => {
                write!(f, "{flag} needs a positive number, got {value:?}")
            }
        }
    }
}

impl std::error::Error for FlagError {}

/// The positive number following `flag` in `args`; `Ok(None)` when
/// the flag is absent.
pub fn positive_flag<T: PositiveNumber>(
    args: &[String],
    flag: &str,
) -> Result<Option<T>, FlagError> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let Some(value) = args.get(i + 1) else {
        return Err(FlagError::Missing { flag: flag.into() });
    };
    match value.parse::<T>() {
        Ok(v) if v.is_positive() => Ok(Some(v)),
        _ => Err(FlagError::NotPositive {
            flag: flag.into(),
            value: value.clone(),
        }),
    }
}

/// [`positive_flag`] over this process's arguments. On a malformed
/// value it prints the error and exits with status 2.
pub fn positive_flag_or_exit<T: PositiveNumber>(flag: &str) -> Option<T> {
    let args: Vec<String> = std::env::args().collect();
    positive_flag(&args, flag).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
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

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn positive_flag_parses_or_names_the_bad_value() {
        let ok = args(&["bin", "--horizon", "20", "--seeds", "4"]);
        assert_eq!(positive_flag::<f64>(&ok, "--horizon"), Ok(Some(20.0)));
        assert_eq!(positive_flag::<u64>(&ok, "--seeds"), Ok(Some(4)));
        assert_eq!(positive_flag::<f64>(&ok, "--budget-secs"), Ok(None));
        for bad in ["garbage", "NaN", "inf", "-3", "0", "0.0", ""] {
            let err = positive_flag::<f64>(&args(&["bin", "--horizon", bad]), "--horizon");
            assert_eq!(
                err,
                Err(FlagError::NotPositive {
                    flag: "--horizon".into(),
                    value: bad.into()
                })
            );
        }
        for bad in ["-1", "0", "2.5", "x"] {
            let err = positive_flag::<u64>(&args(&["bin", "--seeds", bad]), "--seeds");
            assert!(matches!(err, Err(FlagError::NotPositive { .. })), "{bad}");
        }
        let missing = positive_flag::<f64>(&args(&["bin", "--horizon"]), "--horizon");
        assert_eq!(missing.unwrap_err().to_string(), "--horizon needs a value");
        let shown = FlagError::NotPositive {
            flag: "--horizon".into(),
            value: "abc".into(),
        };
        assert_eq!(
            shown.to_string(),
            "--horizon needs a positive number, got \"abc\""
        );
    }

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
