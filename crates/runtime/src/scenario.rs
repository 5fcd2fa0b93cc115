//! The elastic scenario model: leases, preemptions, and faults in
//! one replayable script.
//!
//! A [`ScenarioScript`] is a strict superset of [`FaultScript`]: on
//! top of the perturbation classes ([`Fault::GpuSlowdown`],
//! [`Fault::LinkDegrade`], [`Fault::GpuLoss`]/[`Fault::GpuRecovery`])
//! it adds *lease* events — [`ScenarioEvent::GpuGranted`] and
//! [`ScenarioEvent::GpuPreempted`] — modelling spot-instance GPUs
//! that are handed to the job, taken back, and handed out again.
//!
//! The two layers compile to the same substrate. A GPU is *available*
//! while its lease holds and *unavailable* otherwise; unavailable
//! intervals become rate-0 windows min-composed with the fault
//! windows, so the executor needs no new mechanism — a preempted GPU
//! looks exactly like a lost one until its re-grant. What leases add
//! is the **control plane**: [`ScenarioScript::lease_transitions`]
//! exposes the grant/preempt schedule as typed transitions the
//! controller can react to (dropping a preempted GPU at a wave
//! boundary, re-admitting it on re-grant), which pure fault windows —
//! observable only through the trace — cannot express.
//!
//! Like fault scripts, scenarios are data: a canonical lease trace
//! ([`ScenarioScript::canonical_lease`]) anchors the acceptance
//! measurements, the seeded chaos generator
//! ([`ScenarioScript::chaos`]) covers the space deterministically
//! (same seed ⇒ same script ⇒ same simulation), and JSON
//! round-tripping ([`ScenarioScript::to_json`] /
//! [`ScenarioScript::from_json`]) lets the CI bins load them from
//! files; the parser also accepts the legacy [`FaultScript`] form.

use crate::fault::{
    compile_edges, fault_from_json, fault_to_json, footprints_from_edges, split_segment_rates,
    Fault, FaultScript, RateWindow,
};
use hetpipe_core::exec::{RateEvent, RateTarget};
use hetpipe_des::SimTime;
use serde_json::{json, Value};

/// One scripted scenario event, in *global* simulated seconds.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioEvent {
    /// A classic perturbation (slowdown, link degrade, loss,
    /// recovery) — see [`Fault`].
    Fault(Fault),
    /// GPU `gpu` (cluster device index) is leased to the job at
    /// `at_secs`. A grant at time 0 states the GPU is part of the
    /// initial lease; a later first grant means the GPU joins a
    /// running job (it is unavailable before it).
    GpuGranted {
        /// Cluster device index.
        gpu: usize,
        /// Grant instant, seconds.
        at_secs: f64,
    },
    /// GPU `gpu`'s lease is revoked at `at_secs`: the device is
    /// unavailable (rate 0) until a later [`ScenarioEvent::GpuGranted`]
    /// returns it.
    GpuPreempted {
        /// Cluster device index.
        gpu: usize,
        /// Preemption instant, seconds.
        at_secs: f64,
    },
}

impl ScenarioEvent {
    /// A short human-readable label for trace markers.
    pub fn label(&self) -> String {
        match self {
            ScenarioEvent::Fault(f) => f.label(),
            ScenarioEvent::GpuGranted { gpu, .. } => format!("lease: gpu{gpu} granted"),
            ScenarioEvent::GpuPreempted { gpu, .. } => format!("lease: gpu{gpu} preempted"),
        }
    }
}

/// One lease-state change: at `at`, GPU `gpu` became available
/// (`true`) or unavailable (`false`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeaseTransition {
    /// Global transition instant.
    pub at: SimTime,
    /// Cluster device index.
    pub gpu: usize,
    /// The availability the transition switches *to*.
    pub available: bool,
}

/// A named, deterministic sequence of [`ScenarioEvent`]s.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScenarioScript {
    /// Script name (reports, trace markers, CI artifacts).
    pub name: String,
    /// The events, in any order (edges are sorted at compile time).
    pub events: Vec<ScenarioEvent>,
}

impl From<FaultScript> for ScenarioScript {
    fn from(s: FaultScript) -> Self {
        ScenarioScript {
            name: s.name,
            events: s.faults.into_iter().map(ScenarioEvent::Fault).collect(),
        }
    }
}

impl ScenarioScript {
    /// The empty (zero-scenario) script: running under it must leave
    /// every trace bit-identical to a fault-free run.
    pub fn none() -> ScenarioScript {
        ScenarioScript {
            name: "none".into(),
            events: Vec::new(),
        }
    }

    /// True when the script perturbs nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The canonical lease trace: `gpu` is part of the initial lease,
    /// is preempted at `preempt_secs`, and re-granted at
    /// `regrant_secs` — the acceptance scenario of the elastic
    /// controller (drop at a wave boundary, re-admit on re-grant).
    pub fn canonical_lease(gpu: usize, preempt_secs: f64, regrant_secs: f64) -> ScenarioScript {
        assert!(
            preempt_secs < regrant_secs,
            "re-grant must follow the preemption"
        );
        ScenarioScript {
            name: "canonical-lease".into(),
            events: vec![
                ScenarioEvent::GpuGranted { gpu, at_secs: 0.0 },
                ScenarioEvent::GpuPreempted {
                    gpu,
                    at_secs: preempt_secs,
                },
                ScenarioEvent::GpuGranted {
                    gpu,
                    at_secs: regrant_secs,
                },
            ],
        }
    }

    /// A deterministic seeded chaos script: `count` events drawn over
    /// `[0, horizon_secs)` mixing slowdown windows, link degradation,
    /// and preempt/re-grant lease pairs across `gpus` devices and
    /// `nodes` NICs. Two liveness invariants are enforced by
    /// construction so every chaos run can be gated on progress:
    /// GPU 0 is never preempted, and preemption windows never leave
    /// fewer than two GPUs available at any instant (a candidate
    /// window that would is skipped). Same seed ⇒ same script.
    pub fn chaos(seed: u64, horizon_secs: f64, gpus: usize, nodes: usize, count: usize) -> Self {
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
        let mut events = Vec::with_capacity(count);
        // Closed preemption windows already committed, for the
        // ≥2-available invariant (every preemption here is paired
        // with a re-grant, so intervals are closed).
        let mut outages: Vec<(usize, f64, f64)> = Vec::new();
        for _ in 0..count {
            let from = unit(&mut next) * horizon_secs * 0.8;
            let len = 0.05 * horizon_secs + unit(&mut next) * 0.3 * horizon_secs;
            let until = (from + len).min(horizon_secs * 0.95);
            match next() % 4 {
                0 if nodes > 0 => events.push(ScenarioEvent::Fault(Fault::LinkDegrade {
                    node: (next() % nodes as u64) as usize,
                    factor: 1.1 + unit(&mut next) * 0.9,
                    from_secs: from,
                    until_secs: Some(until),
                })),
                1 if gpus > 1 => {
                    // gpu 0 is exempt: a preemption target in 1..gpus.
                    let gpu = 1 + (next() % (gpus as u64 - 1)) as usize;
                    let overlap =
                        |&(g, f, u): &(usize, f64, f64)| g != gpu && f < until && from < u;
                    let concurrent = outages.iter().filter(|o| overlap(o)).count();
                    // Including this window, `concurrent + 1` GPUs can
                    // be down at once; keep at least 2 of `gpus` up.
                    if gpus >= concurrent + 3 {
                        outages.push((gpu, from, until));
                        events.push(ScenarioEvent::GpuPreempted { gpu, at_secs: from });
                        events.push(ScenarioEvent::GpuGranted {
                            gpu,
                            at_secs: until,
                        });
                    }
                }
                _ => events.push(ScenarioEvent::Fault(Fault::GpuSlowdown {
                    gpu: (next() % gpus.max(1) as u64) as usize,
                    factor: 1.1 + unit(&mut next) * 0.9,
                    from_secs: from,
                    until_secs: Some(until),
                })),
            }
        }
        ScenarioScript {
            name: format!("chaos-{seed}"),
            events,
        }
    }

    /// The plain-fault view of the script (lease events excluded).
    fn fault_windows(&self) -> Vec<RateWindow> {
        let faults: Vec<Fault> = self
            .events
            .iter()
            .filter_map(|e| match e {
                ScenarioEvent::Fault(f) => Some(f.clone()),
                _ => None,
            })
            .collect();
        FaultScript {
            name: self.name.clone(),
            faults,
        }
        .windows()
    }

    /// Every lease event of one GPU, sorted by time (preemptions
    /// before grants at the same instant, so a zero-length flap
    /// resolves to "available").
    fn lease_events(&self) -> Vec<(usize, f64, bool)> {
        let mut lease: Vec<(usize, f64, bool)> = self
            .events
            .iter()
            .filter_map(|e| match *e {
                ScenarioEvent::GpuGranted { gpu, at_secs } => Some((gpu, at_secs, true)),
                ScenarioEvent::GpuPreempted { gpu, at_secs } => Some((gpu, at_secs, false)),
                ScenarioEvent::Fault(_) => None,
            })
            .collect();
        lease.sort_by(|a, b| {
            (a.0, a.1, a.2)
                .partial_cmp(&(b.0, b.1, b.2))
                .expect("lease times are finite")
        });
        lease
    }

    /// The lease-state changes of the script, sorted by time: GPUs
    /// with no lease events never appear (they are plain cluster
    /// devices, always available). A GPU whose first lease event is a
    /// grant is unavailable before it — so an initial grant at time 0
    /// produces a (vacuous) transition to available at 0, and a GPU
    /// that joins mid-run transitions when it arrives. Duplicate
    /// same-state events collapse: only actual changes are reported.
    pub fn lease_transitions(&self) -> Vec<LeaseTransition> {
        let mut out = Vec::new();
        let mut cur: Option<(usize, bool)> = None; // (gpu, available)
        for (gpu, at, avail) in self.lease_events() {
            let changed = match cur {
                Some((g, a)) if g == gpu => a != avail,
                // First event of this GPU: it was unavailable before a
                // first grant, available before a first preemption.
                _ => true,
            };
            cur = Some((gpu, avail));
            if changed {
                out.push(LeaseTransition {
                    at: SimTime::from_secs(at),
                    gpu,
                    available: avail,
                });
            }
        }
        out.sort_by_key(|t| t.at);
        out
    }

    /// All rate windows of the script: the fault windows plus one
    /// rate-0 window per unavailable lease interval (a preempted GPU
    /// is indistinguishable from a lost one until its re-grant, and
    /// a late-joining GPU is dead until its first grant).
    fn windows(&self) -> Vec<RateWindow> {
        let mut windows = self.fault_windows();
        let mut open: Option<f64> = None; // unavailable since
        let mut cur: Option<(usize, bool)> = None;
        let mut flush = |gpu: usize, open: &mut Option<f64>, until: Option<f64>| {
            if let Some(from) = open.take() {
                windows.push((
                    (0u8, gpu),
                    SimTime::from_secs(from),
                    until.map(SimTime::from_secs),
                    0.0,
                ));
            }
        };
        for (gpu, at, avail) in self.lease_events() {
            if let Some((g, _)) = cur {
                if g != gpu {
                    // Previous GPU's trailing unavailable interval is
                    // open-ended.
                    flush(g, &mut open, None);
                }
            }
            let first = !matches!(cur, Some((g, _)) if g == gpu);
            match (avail, first) {
                // First grant: unavailable from the start of time.
                (true, true) => {
                    if at > 0.0 {
                        open = Some(0.0);
                    }
                    flush(gpu, &mut open, Some(at));
                }
                (true, false) => flush(gpu, &mut open, Some(at)),
                (false, _) => {
                    if open.is_none() {
                        open = Some(at);
                    }
                }
            }
            cur = Some((gpu, avail));
        }
        if let Some((g, _)) = cur {
            flush(g, &mut open, None);
        }
        windows
    }

    /// All effective rate edges of the script, sorted by time; lease
    /// unavailability min-composes with fault windows exactly like
    /// [`FaultScript::edges`] (the worst active window dominates).
    pub fn edges(&self) -> Vec<(SimTime, RateTarget, f64)> {
        compile_edges(&self.windows())
    }

    /// The declared footprint of every rate edge, in edge order — the
    /// successor of [`FaultScript::edge_footprints`] for the static
    /// VW-isolation pass: lease edges, like fault edges, write exactly
    /// one environment-owned rate register and read nothing, so a
    /// scenario script adds no dependence between virtual workers.
    pub fn edge_footprints(&self) -> Vec<hetpipe_des::Footprint> {
        footprints_from_edges(&self.edges())
    }

    /// Compiles the script for a segment starting at global time
    /// `offset` (see [`FaultScript::segment_rates`]).
    pub fn segment_rates(&self, offset: SimTime) -> (Vec<(RateTarget, f64)>, Vec<RateEvent>) {
        split_segment_rates(self.edges(), offset)
    }

    /// Trace markers (global time + label) for every event onset and
    /// window end, for chrome-trace instant events.
    pub fn instants(&self) -> Vec<(SimTime, String, &'static str)> {
        let faults: Vec<Fault> = self
            .events
            .iter()
            .filter_map(|e| match e {
                ScenarioEvent::Fault(f) => Some(f.clone()),
                _ => None,
            })
            .collect();
        let mut out = FaultScript {
            name: self.name.clone(),
            faults,
        }
        .instants();
        for e in &self.events {
            match *e {
                ScenarioEvent::GpuGranted { at_secs, .. }
                | ScenarioEvent::GpuPreempted { at_secs, .. } => {
                    out.push((SimTime::from_secs(at_secs), e.label(), "lease"));
                }
                ScenarioEvent::Fault(_) => {}
            }
        }
        out.sort_by_key(|i| i.0);
        out
    }

    /// Serializes the script as JSON (an `events` array; fault events
    /// use their [`FaultScript`] encoding).
    pub fn to_json(&self) -> Value {
        let events: Vec<Value> = self
            .events
            .iter()
            .map(|e| match *e {
                ScenarioEvent::Fault(ref f) => fault_to_json(f),
                ScenarioEvent::GpuGranted { gpu, at_secs } => json!({
                    "kind": "gpu-granted",
                    "gpu": gpu as u64,
                    "at": at_secs,
                }),
                ScenarioEvent::GpuPreempted { gpu, at_secs } => json!({
                    "kind": "gpu-preempted",
                    "gpu": gpu as u64,
                    "at": at_secs,
                }),
            })
            .collect();
        json!({ "name": self.name.clone(), "events": events })
    }

    /// Parses a script from its JSON form; a legacy [`FaultScript`]
    /// object (a `faults` array) is accepted and upgraded. Returns a
    /// description of the first problem on malformed input.
    pub fn from_json(text: &str) -> Result<ScenarioScript, String> {
        let value: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let Value::Object(map) = &value else {
            return Err("scenario script must be a JSON object".into());
        };
        if map.get("faults").is_some() && map.get("events").is_none() {
            return FaultScript::from_json(text).map(ScenarioScript::from);
        }
        let name = match map.get("name") {
            Some(Value::String(s)) => s.clone(),
            None => "unnamed".into(),
            _ => return Err("'name' must be a string".into()),
        };
        let Some(Value::Array(items)) = map.get("events") else {
            return Err("'events' must be an array".into());
        };
        let mut events = Vec::with_capacity(items.len());
        for item in items {
            let Value::Object(m) = item else {
                return Err("each event must be an object".into());
            };
            let kind = match m.get("kind") {
                Some(Value::String(s)) => s.as_str(),
                _ => return Err("each event needs a string 'kind'".into()),
            };
            let lease = |key: &str| -> Result<(usize, f64), String> {
                let gpu = match m.get("gpu") {
                    Some(Value::Number(n)) if *n >= 0.0 && n.fract() == 0.0 => *n as usize,
                    _ => return Err("'gpu' must be a non-negative integer".into()),
                };
                let at = match m.get(key) {
                    Some(Value::Number(n)) => *n,
                    _ => return Err(format!("'{key}' must be a number")),
                };
                Ok((gpu, at))
            };
            events.push(match kind {
                "gpu-granted" => {
                    let (gpu, at_secs) = lease("at")?;
                    ScenarioEvent::GpuGranted { gpu, at_secs }
                }
                "gpu-preempted" => {
                    let (gpu, at_secs) = lease("at")?;
                    ScenarioEvent::GpuPreempted { gpu, at_secs }
                }
                // Anything else must be a fault kind: delegate to the
                // fault parser (which also validates factors ≥ 1).
                _ => ScenarioEvent::Fault(fault_from_json(item)?),
            });
        }
        Ok(ScenarioScript { name, events })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_lease_compiles_to_loss_recovery_edges() {
        let s = ScenarioScript::canonical_lease(2, 8.0, 16.0);
        let edges = s.edges();
        // The initial grant at 0 contributes no edge (the GPU is
        // available from the start); the preempt/re-grant pair is a
        // rate-0 window.
        assert_eq!(
            edges,
            vec![
                (SimTime::from_secs(8.0), RateTarget::Gpu(2), 0.0),
                (SimTime::from_secs(16.0), RateTarget::Gpu(2), 1.0),
            ]
        );
        // ...exactly the edges of the equivalent loss/recovery script.
        let f = FaultScript {
            name: "x".into(),
            faults: vec![
                Fault::GpuLoss {
                    gpu: 2,
                    at_secs: 8.0,
                },
                Fault::GpuRecovery {
                    gpu: 2,
                    at_secs: 16.0,
                },
            ],
        };
        assert_eq!(edges, f.edges());
    }

    #[test]
    fn lease_transitions_collapse_to_state_changes() {
        let s = ScenarioScript::canonical_lease(2, 8.0, 16.0);
        let tr = s.lease_transitions();
        assert_eq!(
            tr,
            vec![
                LeaseTransition {
                    at: SimTime::ZERO,
                    gpu: 2,
                    available: true
                },
                LeaseTransition {
                    at: SimTime::from_secs(8.0),
                    gpu: 2,
                    available: false
                },
                LeaseTransition {
                    at: SimTime::from_secs(16.0),
                    gpu: 2,
                    available: true
                },
            ]
        );
        // A duplicate grant is not a transition.
        let mut dup = s.clone();
        dup.events.push(ScenarioEvent::GpuGranted {
            gpu: 2,
            at_secs: 20.0,
        });
        assert_eq!(dup.lease_transitions(), tr);
    }

    #[test]
    fn late_join_gpu_is_dead_until_first_grant() {
        let s = ScenarioScript {
            name: "join".into(),
            events: vec![ScenarioEvent::GpuGranted {
                gpu: 3,
                at_secs: 12.0,
            }],
        };
        let edges = s.edges();
        assert_eq!(
            edges,
            vec![
                (SimTime::ZERO, RateTarget::Gpu(3), 0.0),
                (SimTime::from_secs(12.0), RateTarget::Gpu(3), 1.0),
            ]
        );
        // A trailing preemption with no re-grant stays dead.
        let s = ScenarioScript {
            name: "gone".into(),
            events: vec![ScenarioEvent::GpuPreempted {
                gpu: 1,
                at_secs: 5.0,
            }],
        };
        let (initial, future) = s.segment_rates(SimTime::from_secs(9.0));
        assert_eq!(initial, vec![(RateTarget::Gpu(1), 0.0)]);
        assert!(future.is_empty());
    }

    #[test]
    fn lease_and_fault_windows_min_compose() {
        // A slowdown expiring while the GPU is preempted must not
        // revive it.
        let s = ScenarioScript {
            name: "mix".into(),
            events: vec![
                ScenarioEvent::Fault(Fault::GpuSlowdown {
                    gpu: 0,
                    factor: 2.0,
                    from_secs: 1.0,
                    until_secs: Some(6.0),
                }),
                ScenarioEvent::GpuPreempted {
                    gpu: 0,
                    at_secs: 3.0,
                },
                ScenarioEvent::GpuGranted {
                    gpu: 0,
                    at_secs: 9.0,
                },
            ],
        };
        let edges = s.edges();
        assert_eq!(
            edges,
            vec![
                (SimTime::from_secs(1.0), RateTarget::Gpu(0), 0.5),
                (SimTime::from_secs(3.0), RateTarget::Gpu(0), 0.0),
                // 6.0: slowdown ends — still preempted, no edge.
                (SimTime::from_secs(9.0), RateTarget::Gpu(0), 1.0),
            ]
        );
    }

    #[test]
    fn scenario_json_roundtrip_and_legacy_upgrade() {
        let s = ScenarioScript {
            name: "mix".into(),
            events: vec![
                ScenarioEvent::Fault(Fault::GpuSlowdown {
                    gpu: 1,
                    factor: 1.3,
                    from_secs: 5.0,
                    until_secs: None,
                }),
                ScenarioEvent::GpuPreempted {
                    gpu: 2,
                    at_secs: 8.0,
                },
                ScenarioEvent::GpuGranted {
                    gpu: 2,
                    at_secs: 16.0,
                },
            ],
        };
        let text = s.to_json().to_string();
        let back = ScenarioScript::from_json(&text).unwrap();
        assert_eq!(back, s);
        // A legacy FaultScript document upgrades transparently.
        let f = FaultScript::canonical_straggler(0, 5.0);
        let upgraded = ScenarioScript::from_json(&f.to_json().to_string()).unwrap();
        assert_eq!(upgraded, ScenarioScript::from(f));
        // Bad inputs still fail loudly, including through the fault
        // delegation (sub-unit factors).
        assert!(ScenarioScript::from_json("{\"events\": 3}").is_err());
        let typo =
            r#"{"name":"t","events":[{"kind":"gpu-slowdown","gpu":1,"factor":0.13,"from":5.0}]}"#;
        assert!(ScenarioScript::from_json(typo)
            .unwrap_err()
            .contains("factor"));
    }

    #[test]
    fn chaos_scripts_are_deterministic_and_liveness_safe() {
        let a = ScenarioScript::chaos(7, 60.0, 4, 2, 12);
        let b = ScenarioScript::chaos(7, 60.0, 4, 2, 12);
        assert_eq!(a, b);
        assert_ne!(a, ScenarioScript::chaos(8, 60.0, 4, 2, 12));
        let mut saw_lease = false;
        for seed in 0..64u64 {
            let s = ScenarioScript::chaos(seed, 60.0, 4, 2, 12);
            // GPU 0 is never preempted; every preemption is re-granted.
            let mut down: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
            for t in s.lease_transitions() {
                assert_ne!(t.gpu, 0, "gpu0 must stay leased ({})", s.name);
                if t.available {
                    down.remove(&t.gpu);
                } else {
                    down.insert(t.gpu);
                    saw_lease = true;
                }
                assert!(down.len() <= 2, "≥2 of 4 GPUs must stay up ({})", s.name);
            }
            assert!(down.is_empty(), "trailing preemption ({})", s.name);
        }
        assert!(saw_lease, "the sweep must actually exercise leases");
    }
}
