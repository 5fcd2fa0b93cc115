//! The fault / perturbation model.
//!
//! A [`FaultScript`] is a deterministic, replayable description of the
//! hardware misbehaviour HetPipe's whimpy clusters actually exhibit:
//! GPUs that throttle for a while ([`Fault::GpuSlowdown`]), links that
//! degrade ([`Fault::LinkDegrade`]), GPUs that die mid-epoch
//! ([`Fault::GpuLoss`]) and come back ([`Fault::GpuRecovery`]).
//! Scripts compile to resource service-rate changes
//! ([`hetpipe_core::exec::RateEvent`]) that the executor fires as
//! first-class DES events — a task reserved after an edge is scaled by
//! the new rate.
//!
//! Scripts are data: canonical instances ([`FaultScript::canonical_straggler`],
//! [`FaultScript::canonical_gpu_loss`]) anchor the standing
//! measurements and CI smoke runs, seeded random scripts
//! ([`FaultScript::seeded`]) cover the space deterministically, and
//! JSON round-tripping ([`FaultScript::to_json`] /
//! [`FaultScript::from_json`]) lets `schedule_compare --faults` and
//! the CI bins load them from files.

use hetpipe_core::exec::{RateEvent, RateTarget};
use hetpipe_des::SimTime;
use serde_json::{json, Value};
use std::collections::BTreeMap;

/// One scripted perturbation, in *global* simulated seconds.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// GPU `gpu` (cluster device index) runs `factor`× slower over
    /// `[from_secs, until_secs)`; `None` means "for the rest of the
    /// run".
    GpuSlowdown {
        /// Cluster device index.
        gpu: usize,
        /// Slowdown factor (≥ 1; 1.3 = 30% slower).
        factor: f64,
        /// Window start, seconds.
        from_secs: f64,
        /// Window end, seconds (`None` = permanent).
        until_secs: Option<f64>,
    },
    /// Node `node`'s NIC serves transfers `factor`× slower over the
    /// window (inter-node traffic only: intra-node PCIe lanes carry no
    /// shared timeline).
    LinkDegrade {
        /// Node index.
        node: usize,
        /// Degradation factor (≥ 1).
        factor: f64,
        /// Window start, seconds.
        from_secs: f64,
        /// Window end, seconds (`None` = permanent).
        until_secs: Option<f64>,
    },
    /// GPU `gpu` dies at `at_secs`: work reserved on it never
    /// completes until a [`Fault::GpuRecovery`] restores it.
    GpuLoss {
        /// Cluster device index.
        gpu: usize,
        /// Failure instant, seconds.
        at_secs: f64,
    },
    /// GPU `gpu` returns to nominal speed at `at_secs`.
    GpuRecovery {
        /// Cluster device index.
        gpu: usize,
        /// Recovery instant, seconds.
        at_secs: f64,
    },
}

impl Fault {
    /// A short human-readable label for trace markers.
    pub fn label(&self) -> String {
        match *self {
            Fault::GpuSlowdown { gpu, factor, .. } => format!("fault: gpu{gpu} x{factor:.2}"),
            Fault::LinkDegrade { node, factor, .. } => format!("fault: nic{node} x{factor:.2}"),
            Fault::GpuLoss { gpu, .. } => format!("fault: gpu{gpu} lost"),
            Fault::GpuRecovery { gpu, .. } => format!("fault: gpu{gpu} recovered"),
        }
    }
}

/// One fault's effect compiled to a resource key (`(0, i)` = GPU `i`,
/// `(1, i)` = NIC `i`), a closed-open time window (`None` end =
/// open-ended), and the service rate it imposes while active.
pub(crate) type RateWindow = ((u8, usize), SimTime, Option<SimTime>, f64);

/// Compiles rate windows to effective rate edges, sorted by time.
/// Windows *compose*: at any instant a resource runs at the
/// **minimum** rate over all of its active windows (the worst active
/// perturbation dominates), so a window closing while another is
/// still open restores the surviving window's rate — never a blanket
/// 1.0 — and a lost GPU stays lost until its own recovery even if a
/// slowdown window on it expires in between. Shared by
/// [`FaultScript`] and [`crate::ScenarioScript`].
pub(crate) fn compile_edges(windows: &[RateWindow]) -> Vec<(SimTime, RateTarget, f64)> {
    // Boundary instants per resource.
    let mut boundaries: BTreeMap<(u8, usize), Vec<SimTime>> = BTreeMap::new();
    for &(key, from, until, _) in windows {
        let b = boundaries.entry(key).or_default();
        b.push(from);
        if let Some(until) = until {
            b.push(until);
        }
    }
    let mut edges = Vec::new();
    for (key, mut times) in boundaries {
        times.sort();
        times.dedup();
        let target = match key {
            (0, i) => RateTarget::Gpu(i),
            (_, i) => RateTarget::Nic(i),
        };
        let mut prev = 1.0f64;
        for t in times {
            let rate = windows
                .iter()
                .filter(|&&(k, from, until, _)| {
                    k == key && from <= t && until.is_none_or(|u| t < u)
                })
                .map(|&(_, _, _, r)| r)
                .fold(1.0f64, f64::min);
            if rate != prev {
                edges.push((t, target, rate));
                prev = rate;
            }
        }
    }
    edges.sort_by_key(|&(at, _, _)| at);
    edges
}

/// The declared footprint of each rate edge, in edge order: every
/// edge writes exactly one environment-owned
/// [`hetpipe_des::FootprintResource::Rate`] register and reads
/// nothing (see [`FaultScript::edge_footprints`]).
pub(crate) fn footprints_from_edges(
    edges: &[(SimTime, RateTarget, f64)],
) -> Vec<hetpipe_des::Footprint> {
    use hetpipe_des::{Footprint, FootprintResource, RateKind};
    edges
        .iter()
        .map(|&(_, target, _)| {
            let resource = match target {
                RateTarget::Gpu(index) => FootprintResource::Rate {
                    kind: RateKind::Gpu,
                    index,
                },
                RateTarget::Nic(index) => FootprintResource::Rate {
                    kind: RateKind::Nic,
                    index,
                },
            };
            Footprint {
                reads: Vec::new(),
                writes: vec![resource],
            }
        })
        .collect()
}

/// Splits compiled edges for a segment starting at global `offset`:
/// the rates already in effect at the splice (latest edge per
/// resource at or before `offset`) and the future edges rebased to
/// segment-local time (see [`FaultScript::segment_rates`]).
pub(crate) fn split_segment_rates(
    edges: Vec<(SimTime, RateTarget, f64)>,
    offset: SimTime,
) -> (Vec<(RateTarget, f64)>, Vec<RateEvent>) {
    let mut initial: BTreeMap<(u8, usize), (RateTarget, f64)> = BTreeMap::new();
    let mut future = Vec::new();
    for (at, target, rate) in edges {
        let key = match target {
            RateTarget::Gpu(i) => (0u8, i),
            RateTarget::Nic(i) => (1u8, i),
        };
        if at <= offset {
            initial.insert(key, (target, rate));
        } else {
            future.push(RateEvent {
                at: at - offset,
                target,
                rate,
            });
        }
    }
    (initial.into_values().collect(), future)
}

/// A named, deterministic sequence of [`Fault`]s.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultScript {
    /// Script name (reports, trace markers, CI artifacts).
    pub name: String,
    /// The faults, in any order (edges are sorted at compile time).
    pub faults: Vec<Fault>,
}

impl FaultScript {
    /// The empty (zero-fault) script: running under it must leave
    /// every trace bit-identical to a fault-free run.
    pub fn none() -> FaultScript {
        FaultScript {
            name: "none".into(),
            faults: Vec::new(),
        }
    }

    /// The canonical straggler: `gpu` throttles to 30% slower
    /// (`×1.3`) from `from_secs` for the rest of the run — the
    /// acceptance scenario of the fault-aware runtime and the
    /// `schedule_compare --faults` perturbation column.
    pub fn canonical_straggler(gpu: usize, from_secs: f64) -> FaultScript {
        FaultScript {
            name: "canonical-straggler".into(),
            faults: vec![Fault::GpuSlowdown {
                gpu,
                factor: 1.3,
                from_secs,
                until_secs: None,
            }],
        }
    }

    /// The canonical GPU loss: `gpu` dies at `at_secs` and stays dead.
    pub fn canonical_gpu_loss(gpu: usize, at_secs: f64) -> FaultScript {
        FaultScript {
            name: "canonical-gpu-loss".into(),
            faults: vec![Fault::GpuLoss { gpu, at_secs }],
        }
    }

    /// A deterministic seeded random script: `count` slowdown /
    /// link-degradation windows drawn over `[0, horizon_secs)` across
    /// `gpus` devices and `nodes` NICs. Same seed ⇒ same script ⇒
    /// same simulation, which is what makes perturbed runs replayable.
    pub fn seeded(seed: u64, horizon_secs: f64, gpus: usize, nodes: usize, count: usize) -> Self {
        // SplitMix64: dependency-free, stable across platforms.
        let mut state = seed.wrapping_add(0x9e3779b97f4a7c15);
        let mut next = move || {
            let mut z = state;
            state = state.wrapping_add(0x9e3779b97f4a7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        };
        let unit = move |r: &mut dyn FnMut() -> u64| (r() >> 11) as f64 / (1u64 << 53) as f64;
        let mut faults = Vec::with_capacity(count);
        for _ in 0..count {
            let from = unit(&mut next) * horizon_secs * 0.8;
            let len = 0.1 * horizon_secs + unit(&mut next) * 0.4 * horizon_secs;
            let factor = 1.1 + unit(&mut next) * 0.9; // ×1.1 .. ×2.0
            if nodes > 0 && next() % 4 == 0 {
                faults.push(Fault::LinkDegrade {
                    node: (next() % nodes as u64) as usize,
                    factor,
                    from_secs: from,
                    until_secs: Some((from + len).min(horizon_secs)),
                });
            } else {
                faults.push(Fault::GpuSlowdown {
                    gpu: (next() % gpus.max(1) as u64) as usize,
                    factor,
                    from_secs: from,
                    until_secs: Some((from + len).min(horizon_secs)),
                });
            }
        }
        FaultScript {
            name: format!("seeded-{seed}"),
            faults,
        }
    }

    /// Each fault as a per-resource rate *window*
    /// `(key, from, until, rate)` (closed-open; `None` = open-ended).
    /// A [`Fault::GpuLoss`] is a rate-0 window closed by the earliest
    /// later [`Fault::GpuRecovery`] on the same GPU (which itself
    /// contributes no window).
    pub(crate) fn windows(&self) -> Vec<RateWindow> {
        let mut windows = Vec::with_capacity(self.faults.len());
        for fault in &self.faults {
            match *fault {
                Fault::GpuSlowdown {
                    gpu,
                    factor,
                    from_secs,
                    until_secs,
                } => windows.push((
                    (0u8, gpu),
                    SimTime::from_secs(from_secs),
                    until_secs.map(SimTime::from_secs),
                    1.0 / factor.max(1.0),
                )),
                Fault::LinkDegrade {
                    node,
                    factor,
                    from_secs,
                    until_secs,
                } => windows.push((
                    (1u8, node),
                    SimTime::from_secs(from_secs),
                    until_secs.map(SimTime::from_secs),
                    1.0 / factor.max(1.0),
                )),
                Fault::GpuLoss { gpu, at_secs } => {
                    let until = self
                        .faults
                        .iter()
                        .filter_map(|f| match *f {
                            Fault::GpuRecovery { gpu: g, at_secs: r }
                                if g == gpu && r > at_secs =>
                            {
                                Some(r)
                            }
                            _ => None,
                        })
                        .fold(None::<f64>, |acc, r| Some(acc.map_or(r, |a: f64| a.min(r))));
                    windows.push((
                        (0u8, gpu),
                        SimTime::from_secs(at_secs),
                        until.map(SimTime::from_secs),
                        0.0,
                    ));
                }
                Fault::GpuRecovery { .. } => {}
            }
        }
        windows
    }

    /// All effective rate edges of the script, sorted by time. Faults
    /// *compose*: at any instant a resource runs at the **minimum**
    /// rate over all of its active windows (the worst active fault
    /// dominates), so a window closing while another is still open
    /// restores the surviving fault's rate — never a blanket 1.0 —
    /// and a lost GPU stays lost until its own recovery even if a
    /// slowdown window on it expires in between.
    pub fn edges(&self) -> Vec<(SimTime, RateTarget, f64)> {
        compile_edges(&self.windows())
    }

    /// The declared footprint of every rate edge of the script, in
    /// edge order — the fault runtime's contribution to the static
    /// VW-isolation pass. Each edge writes exactly one
    /// environment-owned [`hetpipe_des::FootprintResource::Rate`]
    /// register (the GPU's or NIC's service rate) and reads nothing,
    /// so `hetpipe-verify` can certify that fault scripts never
    /// create a VW-to-VW dependence.
    pub fn edge_footprints(&self) -> Vec<hetpipe_des::Footprint> {
        footprints_from_edges(&self.edges())
    }

    /// Compiles the script for a segment starting at global time
    /// `offset`: the rates already in effect at the splice (latest
    /// edge per resource at or before `offset`) and the future edges
    /// rebased to segment-local time.
    pub fn segment_rates(&self, offset: SimTime) -> (Vec<(RateTarget, f64)>, Vec<RateEvent>) {
        split_segment_rates(self.edges(), offset)
    }

    /// Trace markers (global time + label) for every fault onset and
    /// window end, for chrome-trace instant events.
    pub fn instants(&self) -> Vec<(SimTime, String, &'static str)> {
        let mut out = Vec::new();
        for f in &self.faults {
            match *f {
                Fault::GpuSlowdown {
                    from_secs,
                    until_secs,
                    ..
                }
                | Fault::LinkDegrade {
                    from_secs,
                    until_secs,
                    ..
                } => {
                    out.push((SimTime::from_secs(from_secs), f.label(), "fault"));
                    if let Some(until) = until_secs {
                        out.push((
                            SimTime::from_secs(until),
                            format!("{} ends", f.label()),
                            "fault",
                        ));
                    }
                }
                Fault::GpuLoss { at_secs, .. } | Fault::GpuRecovery { at_secs, .. } => {
                    out.push((SimTime::from_secs(at_secs), f.label(), "fault"));
                }
            }
        }
        out.sort_by_key(|i| i.0);
        out
    }

    /// Serializes the script as JSON.
    pub fn to_json(&self) -> Value {
        let faults: Vec<Value> = self.faults.iter().map(fault_to_json).collect();
        json!({ "name": self.name.clone(), "faults": faults })
    }

    /// Parses a script from its JSON form. Returns a description of
    /// the first problem on malformed input.
    pub fn from_json(text: &str) -> Result<FaultScript, String> {
        let value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let Value::Object(map) = &value else {
            return Err("fault script must be a JSON object".into());
        };
        let name = match map.get("name") {
            Some(Value::String(s)) => s.clone(),
            None => "unnamed".into(),
            _ => return Err("'name' must be a string".into()),
        };
        let Some(Value::Array(items)) = map.get("faults") else {
            return Err("'faults' must be an array".into());
        };
        let mut faults = Vec::with_capacity(items.len());
        for item in items {
            faults.push(fault_from_json(item)?);
        }
        Ok(FaultScript { name, faults })
    }
}

/// Serializes one fault (shared with the scenario encoder).
pub(crate) fn fault_to_json(f: &Fault) -> Value {
    match *f {
        Fault::GpuSlowdown {
            gpu,
            factor,
            from_secs,
            until_secs,
        } => json!({
            "kind": "gpu-slowdown",
            "gpu": gpu as u64,
            "factor": factor,
            "from": from_secs,
            "until": until_secs.map(Value::Number).unwrap_or(Value::Null),
        }),
        Fault::LinkDegrade {
            node,
            factor,
            from_secs,
            until_secs,
        } => json!({
            "kind": "link-degrade",
            "node": node as u64,
            "factor": factor,
            "from": from_secs,
            "until": until_secs.map(Value::Number).unwrap_or(Value::Null),
        }),
        Fault::GpuLoss { gpu, at_secs } => json!({
            "kind": "gpu-loss",
            "gpu": gpu as u64,
            "at": at_secs,
        }),
        Fault::GpuRecovery { gpu, at_secs } => json!({
            "kind": "gpu-recovery",
            "gpu": gpu as u64,
            "at": at_secs,
        }),
    }
}

/// Parses one fault object (shared with the scenario parser).
pub(crate) fn fault_from_json(item: &Value) -> Result<Fault, String> {
    let Value::Object(m) = item else {
        return Err("each fault must be an object".into());
    };
    let num = |key: &str| -> Result<f64, String> {
        match m.get(key) {
            Some(Value::Number(n)) => Ok(*n),
            _ => Err(format!("'{key}' must be a number")),
        }
    };
    // A factor below 1 would compile to a rate above nominal — a
    // mistyped script (0.13 for 1.3) must fail loudly, not run
    // unperturbed.
    let factor = || -> Result<f64, String> {
        let f = num("factor")?;
        if f < 1.0 {
            return Err(format!(
                "'factor' must be >= 1 (a x{f} slowdown is a speedup)"
            ));
        }
        Ok(f)
    };
    let idx = |key: &str| -> Result<usize, String> {
        let n = num(key)?;
        if n < 0.0 || n.fract() != 0.0 {
            return Err(format!("'{key}' must be a non-negative integer"));
        }
        Ok(n as usize)
    };
    let until = || -> Result<Option<f64>, String> {
        match m.get("until") {
            None | Some(Value::Null) => Ok(None),
            Some(Value::Number(n)) => Ok(Some(*n)),
            _ => Err("'until' must be a number or null".into()),
        }
    };
    let kind = match m.get("kind") {
        Some(Value::String(s)) => s.as_str(),
        _ => return Err("each fault needs a string 'kind'".into()),
    };
    Ok(match kind {
        "gpu-slowdown" => Fault::GpuSlowdown {
            gpu: idx("gpu")?,
            factor: factor()?,
            from_secs: num("from")?,
            until_secs: until()?,
        },
        "link-degrade" => Fault::LinkDegrade {
            node: idx("node")?,
            factor: factor()?,
            from_secs: num("from")?,
            until_secs: until()?,
        },
        "gpu-loss" => Fault::GpuLoss {
            gpu: idx("gpu")?,
            at_secs: num("at")?,
        },
        "gpu-recovery" => Fault::GpuRecovery {
            gpu: idx("gpu")?,
            at_secs: num("at")?,
        },
        other => return Err(format!("unknown fault kind '{other}'")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_compile_to_paired_edges() {
        let s = FaultScript {
            name: "w".into(),
            faults: vec![Fault::GpuSlowdown {
                gpu: 2,
                factor: 2.0,
                from_secs: 1.0,
                until_secs: Some(3.0),
            }],
        };
        let edges = s.edges();
        assert_eq!(edges.len(), 2);
        assert_eq!(edges[0], (SimTime::from_secs(1.0), RateTarget::Gpu(2), 0.5));
        assert_eq!(edges[1], (SimTime::from_secs(3.0), RateTarget::Gpu(2), 1.0));
    }

    #[test]
    fn edge_footprints_are_external_write_only() {
        use hetpipe_des::{FootprintResource, Owner, RateKind};
        let s = FaultScript {
            name: "mixed".into(),
            faults: vec![
                Fault::GpuSlowdown {
                    gpu: 2,
                    factor: 2.0,
                    from_secs: 1.0,
                    until_secs: Some(3.0),
                },
                Fault::LinkDegrade {
                    node: 1,
                    factor: 4.0,
                    from_secs: 2.0,
                    until_secs: None,
                },
            ],
        };
        let fps = s.edge_footprints();
        assert_eq!(fps.len(), s.edges().len(), "one footprint per edge");
        for fp in &fps {
            assert!(fp.reads.is_empty(), "rate edges read nothing");
            assert_eq!(fp.writes.len(), 1, "exactly one rate register");
            assert_eq!(fp.writes[0].owner(), Owner::External);
        }
        // The GPU slowdown window contributes its onset+restore edges
        // on gpu2's register; the open-ended link fault one edge on
        // nic1's.
        assert!(fps.iter().any(|fp| fp.writes[0]
            == FootprintResource::Rate {
                kind: RateKind::Gpu,
                index: 2
            }));
        assert!(fps.iter().any(|fp| fp.writes[0]
            == FootprintResource::Rate {
                kind: RateKind::Nic,
                index: 1
            }));
    }

    #[test]
    fn segment_rates_split_at_offset() {
        let s = FaultScript {
            name: "w".into(),
            faults: vec![
                Fault::GpuSlowdown {
                    gpu: 0,
                    factor: 1.3,
                    from_secs: 1.0,
                    until_secs: None,
                },
                Fault::GpuLoss {
                    gpu: 1,
                    at_secs: 10.0,
                },
            ],
        };
        let (initial, future) = s.segment_rates(SimTime::from_secs(5.0));
        assert_eq!(initial.len(), 1, "slowdown already in effect");
        assert_eq!(initial[0].0, RateTarget::Gpu(0));
        assert!((initial[0].1 - 1.0 / 1.3).abs() < 1e-12);
        assert_eq!(future.len(), 1, "loss still ahead");
        assert_eq!(
            future[0].at,
            SimTime::from_secs(5.0),
            "rebased to local time"
        );
        assert_eq!(future[0].rate, 0.0);
    }

    #[test]
    fn overlapping_faults_compose_by_min_rate() {
        // A slowdown window expiring while the GPU is lost must NOT
        // revive it; overlapping slowdowns keep the worst active one.
        let s = FaultScript {
            name: "overlap".into(),
            faults: vec![
                Fault::GpuSlowdown {
                    gpu: 0,
                    factor: 2.0,
                    from_secs: 1.0,
                    until_secs: Some(5.0),
                },
                Fault::GpuLoss {
                    gpu: 0,
                    at_secs: 3.0,
                },
                Fault::GpuRecovery {
                    gpu: 0,
                    at_secs: 8.0,
                },
                // A second, milder slowdown outlasting the first.
                Fault::GpuSlowdown {
                    gpu: 0,
                    factor: 1.25,
                    from_secs: 2.0,
                    until_secs: Some(10.0),
                },
            ],
        };
        let edges = s.edges();
        let expect = vec![
            (SimTime::from_secs(1.0), 0.5), // x2 window opens
            (SimTime::from_secs(3.0), 0.0), // loss dominates
            // 5.0: x2 window ends — GPU stays LOST, no edge emitted.
            (SimTime::from_secs(8.0), 0.8), // recovery -> surviving x1.25
            (SimTime::from_secs(10.0), 1.0), // last window ends
        ];
        assert_eq!(edges.len(), expect.len(), "{edges:?}");
        for ((at, target, rate), (eat, erate)) in edges.iter().zip(&expect) {
            assert_eq!(*target, RateTarget::Gpu(0));
            assert_eq!(at, eat, "{edges:?}");
            assert!((rate - erate).abs() < 1e-12, "{edges:?}");
        }
        // And a loss with no recovery stays dead past every window end.
        let s = FaultScript {
            name: "dead".into(),
            faults: vec![
                Fault::GpuLoss {
                    gpu: 1,
                    at_secs: 3.0,
                },
                Fault::GpuSlowdown {
                    gpu: 1,
                    factor: 2.0,
                    from_secs: 1.0,
                    until_secs: Some(5.0),
                },
            ],
        };
        let (initial, future) = s.segment_rates(SimTime::from_secs(6.0));
        assert_eq!(initial, vec![(RateTarget::Gpu(1), 0.0)], "still dead");
        assert!(future.is_empty());
    }

    #[test]
    fn json_rejects_sub_unit_factors() {
        let text = r#"{"name":"typo","faults":[{"kind":"gpu-slowdown","gpu":1,"factor":0.13,"from":5.0}]}"#;
        let err = FaultScript::from_json(text).unwrap_err();
        assert!(err.contains("factor"), "{err}");
    }

    #[test]
    fn json_roundtrip() {
        let s = FaultScript {
            name: "mix".into(),
            faults: vec![
                Fault::GpuSlowdown {
                    gpu: 1,
                    factor: 1.3,
                    from_secs: 5.0,
                    until_secs: Some(20.0),
                },
                Fault::LinkDegrade {
                    node: 0,
                    factor: 2.0,
                    from_secs: 2.0,
                    until_secs: None,
                },
                Fault::GpuLoss {
                    gpu: 3,
                    at_secs: 8.0,
                },
                Fault::GpuRecovery {
                    gpu: 3,
                    at_secs: 12.0,
                },
            ],
        };
        let text = s.to_json().to_string();
        let back = FaultScript::from_json(&text).unwrap();
        assert_eq!(back, s);
        assert!(FaultScript::from_json("{\"faults\": 3}").is_err());
        assert!(FaultScript::from_json("[]").is_err());
    }

    #[test]
    fn seeded_scripts_are_deterministic() {
        let a = FaultScript::seeded(42, 60.0, 16, 4, 5);
        let b = FaultScript::seeded(42, 60.0, 16, 4, 5);
        assert_eq!(a, b);
        assert_eq!(a.faults.len(), 5);
        let c = FaultScript::seeded(43, 60.0, 16, 4, 5);
        assert_ne!(a, c, "different seeds give different scripts");
    }
}
