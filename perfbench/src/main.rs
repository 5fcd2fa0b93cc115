//! One workload of the HetPipe benchmark, in one process.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--phase setup|run]`
//!
//! - `--phase setup` performs the workload's cold set-up (planning,
//!   certification, service start), checks it, and prints one JSON
//!   line with the set-up time and the per-plan times. The planner's
//!   refine memo is process-global, so each cold set-up sample needs a
//!   process of its own; `run.py` starts these one after another.
//! - `--phase run` (the default) performs the set-up, a warm-up pass
//!   over the workload's operations, and then timed passes until
//!   `--seconds` have elapsed. Each pass runs every operation once, in
//!   a seeded order. With `--trace 1` the timed passes alternate
//!   untraced and traced, so the tracing overhead is the difference
//!   between their median pass times.
//!
//! Every operation is checked (occupancy audits, structural bounds,
//! liveness, repeat determinism); violations count as failed
//! operations and make the process exit non-zero. The last line of
//! standard output is a JSON object for `run.py`.

mod calib;
mod elastic;
mod heap;
mod stats;
mod sweep;
mod trace;
mod vwscale;

use stats::{median, quantile, SplitMix};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use trace::Tracer;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// The workloads, by CLI name.
const WORKLOADS: [&str; 3] = ["schedule-sweep", "vw-scale", "elastic"];

/// Timed passes a run makes at least, whatever `--seconds` says (in a
/// traced run, at least this many of each kind).
const MIN_PASSES: usize = 3;

/// Kernel runs that calibrate the host speed around the set-up.
const CALIBRATION_RUNS: usize = 10;

/// Every per-layer metric, with its unit, in output order. A workload
/// that does not exercise a layer reports 0 for its metrics and the
/// human-readable summary marks them `n/a`.
const PER_LAYER: [(&str, &str); 33] = [
    ("system.plan_ms_p50", "ms"),
    ("system.plan_ms_p75", "ms"),
    ("system.plan_ms.flat", "ms"),
    ("system.plan_ms.interleaved", "ms"),
    ("partition.solve_us_p50", "us"),
    ("partition.max_nm_ms_p50", "ms"),
    ("verify.certify_ms", "ms"),
    ("exec.events", "count"),
    ("exec.spans", "count"),
    ("exec.ns_per_event", "ns"),
    ("exec.run_ms.wave", "ms"),
    ("exec.run_ms.fill-drain", "ms"),
    ("exec.run_ms.1f1b", "ms"),
    ("exec.run_ms.interleaved-depth", "ms"),
    ("exec.run_ms.interleaved", "ms"),
    ("exec.ns_per_event.v16", "ns"),
    ("exec.ns_per_event.v64", "ns"),
    ("exec.ns_per_event.v256", "ns"),
    ("exec.flatness", "ratio"),
    ("metrics.report_ms", "ms"),
    ("audit.measure_ms", "ms"),
    ("audit.violations", "count"),
    ("runtime.epochs", "count"),
    ("runtime.signals", "count"),
    ("plansvc.hits", "count"),
    ("plansvc.misses", "count"),
    ("plansvc.publishes", "count"),
    ("plansvc.hit_ratio", "ratio"),
    ("model.pull_wait_s", "s"),
    ("model.sync_gib_inter", "GiB"),
    ("model.act_gib_inter", "GiB"),
    ("model.mb_completed", "count"),
    ("trace.overhead_s", "s"),
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: u64,
    /// Traced run.
    pub trace: bool,
    /// Set-up only.
    pub setup_only: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut setup_only = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload {w:?} (expected one of {})",
                        WORKLOADS.join(", ")
                    ));
                }
                workload = Some(w);
            }
            "--seed" => {
                let v = value()?;
                seed = Some(
                    v.parse::<u64>()
                        .map_err(|_| format!("--seed {v:?} is not a non-negative integer"))?,
                );
            }
            "--seconds" => {
                let v = value()?;
                let s = v
                    .parse::<u64>()
                    .ok()
                    .filter(|&s| (1..=3600).contains(&s))
                    .ok_or_else(|| format!("--seconds {v:?} is not an integer in 1..=3600"))?;
                seconds = Some(s);
            }
            "--trace" => {
                let v = value()?;
                trace = Some(match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {v:?} must be 0 or 1")),
                });
            }
            "--phase" => {
                let v = value()?;
                setup_only = match v.as_str() {
                    "setup" => true,
                    "run" => false,
                    _ => return Err(format!("--phase {v:?} must be setup or run")),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
        setup_only,
    })
}

/// The simulated-time results of one operation. A repeat of the
/// operation must reproduce them exactly, traced or not.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    /// DES events processed (0 where the layer does not expose it).
    pub events: u64,
    /// Trace spans recorded by the executor.
    pub spans: u64,
    /// Minibatches completed.
    pub completed: u64,
    /// Modelled throughput, images per simulated second.
    pub images_per_s: f64,
    /// Total parameter-server pull wait, simulated seconds.
    pub pull_wait_s: f64,
    /// Cross-node parameter-synchronization bytes.
    pub sync_bytes_inter: u64,
    /// Cross-node activation/gradient bytes.
    pub act_bytes_inter: u64,
    /// Audit violations found.
    pub violations: u64,
    /// Runtime epochs committed.
    pub epochs: u64,
    /// Runtime monitor signals.
    pub signals: u64,
}

/// Cold set-up of a workload.
#[derive(Debug, Default)]
pub struct Setup {
    /// Wall-clock start of the set-up.
    pub start: Option<Instant>,
    /// Wall time of the set-up, seconds.
    pub setup_s: f64,
    /// Set-up units checked (plans, certificates).
    pub attempted: u64,
    /// Set-up check failures.
    pub failures: Vec<String>,
}

impl Setup {
    /// A set-up starting now.
    pub fn start() -> Setup {
        Setup {
            start: Some(Instant::now()),
            ..Setup::default()
        }
    }

    /// Ends the set-up: records its wall time.
    pub fn finish(&mut self) {
        self.setup_s = self.start.map_or(0.0, |s| s.elapsed().as_secs_f64());
    }
}

/// Results of the timed phase. Times are normalised to the nominal
/// host speed (see [`calib`]) unless marked raw.
#[derive(Debug, Default)]
pub struct Timed {
    /// Untraced operation latencies, ms.
    pub op_ms: Vec<f64>,
    /// Untraced pass durations, s.
    pub pass_s: Vec<f64>,
    /// Untraced pass durations, raw wall time, s.
    pub raw_pass_s: Vec<f64>,
    /// Traced pass durations, s.
    pub traced_pass_s: Vec<f64>,
    /// Normalisation factor of every untraced pass.
    pub factors: Vec<f64>,
    /// Kernel runs right after the set-up, before the warm-up pass.
    pub after_setup: calib::Calibrator,
    /// Reference outcome of every operation (from the warm-up pass).
    pub outcomes: Vec<Outcome>,
    /// Operations executed, warm-up included.
    pub attempted: u64,
    /// Operations with at least one failure.
    pub failed: u64,
}

impl Timed {
    /// Timed passes that ran traced.
    pub fn traced_passes(&self) -> usize {
        self.traced_pass_s.len()
    }
}

/// Runs the timed phase over `n_ops` operations: a warm-up pass whose
/// outcomes become the reference, then passes until `args.seconds`
/// have elapsed. `start_pass` runs before each pass, outside the op
/// timers; `op` returns the outcome and any failures of one operation.
/// The reference kernel runs after every operation; each pass's times
/// are normalised by the kernel's mean time over the pass.
pub fn timed_phase(
    args: &Args,
    tracer: &mut Tracer,
    n_ops: usize,
    mut start_pass: impl FnMut(),
    mut op: impl FnMut(usize, &mut Tracer) -> (Outcome, Vec<String>),
) -> Timed {
    let mut timed = Timed::default();
    let mut order: Vec<usize> = (0..n_ops).collect();
    let mut rng = SplitMix::new(args.seed ^ 0x7061_7373);
    let mut op_id = 0u64;
    let fail = |timed: &mut Timed, msgs: Vec<String>| {
        if !msgs.is_empty() {
            timed.failed += 1;
            for m in msgs {
                eprintln!("FAILED: {m}");
            }
        }
    };

    for _ in 0..CALIBRATION_RUNS {
        timed.after_setup.sample();
    }

    // Warm-up pass: caches fill, lazy set-up finishes, and every
    // operation's reference outcome is recorded.
    tracer.on = false;
    start_pass();
    for i in 0..n_ops {
        let (outcome, failures) = op(i, tracer);
        timed.attempted += 1;
        fail(&mut timed, failures);
        timed.outcomes.push(outcome);
    }

    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let min_passes = if args.trace {
        2 * MIN_PASSES
    } else {
        MIN_PASSES
    };
    let mut pass = 0usize;
    while pass < min_passes || Instant::now() < deadline {
        let traced = args.trace && pass % 2 == 1;
        rng.shuffle(&mut order);
        start_pass();
        let mut cal = calib::Calibrator::default();
        let mut pass_ms = Vec::with_capacity(n_ops);
        for &i in &order {
            tracer.on = traced;
            tracer.op = Some(op_id);
            op_id += 1;
            let t = Instant::now();
            let (outcome, mut failures) = tracer.span("bench.op", "", |t| op(i, t));
            let secs = t.elapsed().as_secs_f64();
            cal.sample_after(secs);
            tracer.on = false;
            tracer.op = None;
            if outcome != timed.outcomes[i] {
                failures.push(format!(
                    "op {i}: repeat differs from its first run ({outcome:?} vs {:?})",
                    timed.outcomes[i]
                ));
            }
            timed.attempted += 1;
            fail(&mut timed, failures);
            pass_ms.push(secs * 1e3);
        }
        let secs = pass_ms.iter().sum::<f64>() / 1e3;
        let k = cal.factor();
        if traced {
            timed.traced_pass_s.push(secs * k);
        } else {
            timed.pass_s.push(secs * k);
            timed.raw_pass_s.push(secs);
            timed.factors.push(k);
            timed.op_ms.extend(pass_ms.iter().map(|ms| ms * k));
        }
        pass += 1;
    }
    timed
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Collected {
    /// The cold set-up.
    pub setup: Setup,
    /// The timed phase (absent for `--phase setup`).
    pub timed: Option<Timed>,
    /// Workload-specific per-layer metrics (traced runs).
    pub layers: BTreeMap<String, f64>,
    /// Extra human-readable summary lines.
    pub notes: Vec<String>,
}

/// Per-layer metrics every simulate-and-report workload shares,
/// derived from the traced passes.
pub fn common_layers(tracer: &Tracer, timed: &Timed, layers: &mut BTreeMap<String, f64>) {
    let mut put = |name: &str, v: f64| {
        layers.insert(name.to_string(), v);
    };
    let per_pass = |f: fn(&Outcome) -> f64| timed.outcomes.iter().map(f).sum::<f64>();
    put("exec.events", per_pass(|o| o.events as f64));
    put("exec.spans", per_pass(|o| o.spans as f64));
    let events = per_pass(|o| o.events as f64) * timed.traced_passes() as f64;
    let exec_s: f64 = tracer.secs_of("exec.run", None).iter().sum();
    if events > 0.0 {
        put("exec.ns_per_event", exec_s * 1e9 / events);
    }
    let report = tracer.secs_of("metrics.report", None);
    if !report.is_empty() {
        put("metrics.report_ms", median(&report) * 1e3);
    }
    let audit = tracer.secs_of("audit.measure", None);
    if !audit.is_empty() {
        put("audit.measure_ms", median(&audit) * 1e3);
    }
    put("audit.violations", per_pass(|o| o.violations as f64));
    put("model.pull_wait_s", per_pass(|o| o.pull_wait_s));
    put(
        "model.sync_gib_inter",
        per_pass(|o| o.sync_bytes_inter as f64) / (1u64 << 30) as f64,
    );
    put(
        "model.act_gib_inter",
        per_pass(|o| o.act_bytes_inter as f64) / (1u64 << 30) as f64,
    );
    put("model.mb_completed", per_pass(|o| o.completed as f64));
    let all_plans = tracer.secs_of("system.build", None);
    if !all_plans.is_empty() {
        put("system.plan_ms_p50", quantile(&all_plans, 0.5) * 1e3);
        put("system.plan_ms_p75", quantile(&all_plans, 0.75) * 1e3);
    }
    let plans = |label| tracer.secs_of("system.build", Some(label));
    for (name, label) in [
        ("system.plan_ms.flat", "flat"),
        ("system.plan_ms.interleaved", "interleaved"),
    ] {
        let p = plans(label);
        if !p.is_empty() {
            put(name, median(&p) * 1e3);
        }
    }
    let solves = tracer.secs_of("partition.solve", None);
    if !solves.is_empty() {
        put("partition.solve_us_p50", median(&solves) * 1e6);
    }
    let nm = tracer.secs_of("partition.max_feasible_nm", None);
    if !nm.is_empty() {
        put("partition.max_nm_ms_p50", median(&nm) * 1e3);
    }
    let certify: f64 = tracer
        .secs_of("verify.deadlock_free", None)
        .iter()
        .sum::<f64>()
        + tracer
            .secs_of("verify.structural_occupancy", None)
            .iter()
            .sum::<f64>();
    if certify > 0.0 {
        put("verify.certify_ms", certify * 1e3);
    }
}

/// Peak resident set size of this process (VmHWM), MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A JSON number; non-finite values become `null` (which `run.py`
/// rejects).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
                 [--phase setup|run]",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut tracer = Tracer::new(false);
    let mut setup_cal = calib::Calibrator::default();
    // The first kernel run of a process pays for cold caches and fresh
    // pages; it is not a sample.
    calib::Calibrator::default().sample();
    for _ in 0..CALIBRATION_RUNS {
        setup_cal.sample();
    }
    let mut collected = match args.workload.as_str() {
        "schedule-sweep" => sweep::run(&args, &mut tracer),
        "vw-scale" => vwscale::run(&args, &mut tracer),
        "elastic" => elastic::run(&args, &mut tracer, nproc),
        _ => unreachable!("validated in parse_args"),
    };
    // The set-up time is normalised by kernel runs just before and just
    // after the set-up.
    match &collected.timed {
        Some(t) => setup_cal.merge(&t.after_setup),
        None => (0..CALIBRATION_RUNS).for_each(|_| setup_cal.sample()),
    }
    let k = setup_cal.factor();
    let raw_setup_s = collected.setup.setup_s;
    collected.setup.setup_s *= k;
    let setup = &collected.setup;
    let setup_failed = setup.failures.len() as u64;
    for f in &setup.failures {
        eprintln!("FAILED (set-up): {f}");
    }

    let Some(timed) = &collected.timed else {
        println!(
            "{{\"setup_s\":{},\"attempted\":{},\"failed\":{}}}",
            num(setup.setup_s),
            setup.attempted,
            setup_failed
        );
        std::process::exit(if setup_failed == 0 { 0 } else { 1 });
    };

    let attempted = setup.attempted + timed.attempted;
    let failed = setup_failed + timed.failed;
    let n_ops = timed.outcomes.len();
    println!(
        "# workload={} seed={} nproc={} ops_per_pass={} timed_passes={} traced_passes={} \
         timed_ops={} attempted={} failed={}",
        args.workload,
        args.seed,
        nproc,
        n_ops,
        timed.pass_s.len(),
        timed.traced_passes(),
        timed.op_ms.len(),
        attempted,
        failed
    );
    for note in &collected.notes {
        println!("# {note}");
    }
    println!(
        "# host speed: set-up factor {k:.4}, pass factors {:.4} (median of {}), kernel nominal \
         {:.3} ms; raw set-up {raw_setup_s:.6} s, raw mean pass {:.6} s",
        median(&timed.factors),
        timed.factors.len(),
        calib::KERNEL_NOMINAL_SECS * 1e3,
        timed.raw_pass_s.iter().sum::<f64>() / timed.raw_pass_s.len().max(1) as f64
    );

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if args.trace {
        let mut layers = collected.layers;
        layers.insert(
            "trace.overhead_s".into(),
            median(&timed.traced_pass_s) - median(&timed.pass_s),
        );
        println!(
            "# trace.overhead_s base: untraced sim_s {:.6} s over {} passes, traced {:.6} s over {}",
            median(&timed.pass_s),
            timed.pass_s.len(),
            median(&timed.traced_pass_s),
            timed.traced_passes()
        );
        for (name, unit) in PER_LAYER {
            match layers.get(name) {
                Some(&v) => metrics.push((name.into(), v, unit)),
                None => {
                    println!("# {name}: n/a on {} (reported as 0)", args.workload);
                    metrics.push((name.into(), 0.0, unit));
                }
            }
        }
        let path = std::path::Path::new(".perfbench_out")
            .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        match tracer.write(&path) {
            Ok(()) => println!(
                "# spans: {} written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    } else {
        let ips = timed.outcomes.iter().map(|o| o.images_per_s).sum::<f64>() / n_ops as f64;
        let sim_s = timed.pass_s.iter().sum::<f64>() / timed.pass_s.len() as f64;
        metrics.push(("sim_s".into(), sim_s, "s"));
        metrics.push(("run_ms_p50".into(), quantile(&timed.op_ms, 0.5), "ms"));
        metrics.push(("run_ms_p90".into(), quantile(&timed.op_ms, 0.9), "ms"));
        metrics.push(("sim_images_per_s".into(), ips, "img/s"));
        let heap_mb = heap::peak_bytes() as f64 / (1u64 << 20) as f64;
        metrics.push(("peak_heap_mb".into(), heap_mb, "MiB"));
        println!("# peak resident set (VmHWM): {:.1} MiB", peak_rss_mb());
        println!(
            "# samples: sim_s {} passes (mean; quartiles {:.6} {:.6} {:.6} s), run_ms {} ops, \
             sim_images_per_s {} ops (mean)",
            timed.pass_s.len(),
            quantile(&timed.pass_s, 0.25),
            median(&timed.pass_s),
            quantile(&timed.pass_s, 0.75),
            timed.op_ms.len(),
            n_ops
        );
    }

    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", num(*v)))
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"setup_s\":{},\
         \"metrics\":{{{}}}}}",
        failed == 0,
        num(setup.setup_s),
        body.join(",")
    );
    std::process::exit(if failed == 0 { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn well_formed_arguments_parse() {
        let a = args(&[
            "--workload",
            "elastic",
            "--seed",
            "3",
            "--seconds",
            "5",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.seconds), ("elastic", 3, 5));
        assert!(a.trace && !a.setup_only);
    }

    #[test]
    fn per_layer_table_matches_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        for (name, unit) in PER_LAYER {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\"");
            assert!(
                spec.contains(&entry),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
        let per_layer = spec
            .lines()
            .filter(|l| l.contains("\"better\"") && !l.contains("\"bound\""));
        assert_eq!(per_layer.count(), PER_LAYER.len());
    }

    #[test]
    fn malformed_arguments_are_rejected() {
        for bad in [
            &["--workload", "nope", "--seed", "1"][..],
            &["--workload", "elastic", "--seed", "x"],
            &["--workload", "elastic", "--seed", "-1"],
            &["--workload", "elastic", "--seed", "1", "--seconds", "0"],
            &["--workload", "elastic", "--seed", "1", "--seconds", "2.5"],
            &["--workload", "elastic", "--seed", "1", "--trace", "yes"],
            &["--workload", "elastic", "--seed"],
            &["--workload", "elastic"],
            &["--workload", "elastic", "--seed", "1", "--horizon", "9"],
        ] {
            assert!(args(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
