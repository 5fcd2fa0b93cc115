//! The measured ≤ declared activation-occupancy audit.
//!
//! The memory model certifies partition plans against each schedule's
//! declared per-stage activation window
//! ([`PipelineSchedule::max_in_flight`]), and the executor enforces
//! that window at dispatch time. This module closes the loop: it
//! measures the *realized* peak occupancy from a run's span trace — a
//! minibatch holds an activation set at a stage from its forward's
//! completion until its backward's completion — and asserts
//! measured ≤ declared as a first-class invariant, per stage and per
//! physical GPU.
//!
//! Used by the tier-1 `schedule_conditions` tests and by the
//! `schedule_compare` CI smoke run, which fails the build on any
//! violation.

use crate::exec::{RunStats, SpanTag};
use crate::vw::VirtualWorker;
use hetpipe_des::SimTime;
use hetpipe_schedule::{PipelineSchedule, Schedule};
use std::fmt;

/// One stage's measured-vs-declared occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageOccupancy {
    /// Virtual worker index.
    pub vw: usize,
    /// Executor (virtual) stage index.
    pub stage: usize,
    /// Trace-measured peak number of minibatches simultaneously
    /// holding activations at the stage.
    pub measured: i64,
    /// The schedule's declared (and memory-charged) bound.
    pub declared: i64,
}

impl StageOccupancy {
    /// True when the run stayed within its certification.
    pub fn sound(&self) -> bool {
        self.measured <= self.declared
    }
}

impl fmt::Display for StageOccupancy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "vw{} stage {}: measured {} / declared {}",
            self.vw, self.stage, self.measured, self.declared
        )
    }
}

/// One physical GPU's measured-vs-declared occupancy (co-located
/// interleaved chunks summed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GpuOccupancy {
    /// Virtual worker index.
    pub vw: usize,
    /// Physical GPU position within the VW (0-based).
    pub gpu: usize,
    /// Peak activation sets held across all of the GPU's co-located
    /// stages simultaneously.
    pub measured: i64,
    /// Sum of the co-located stages' declared bounds.
    pub declared: i64,
}

impl GpuOccupancy {
    /// True when the run stayed within its certification.
    pub fn sound(&self) -> bool {
        self.measured <= self.declared
    }
}

impl fmt::Display for GpuOccupancy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "vw{} gpu {}: measured {} / declared {}",
            self.vw, self.gpu, self.measured, self.declared
        )
    }
}

/// The full audit of one run.
#[derive(Debug, Clone)]
pub struct OccupancyAudit {
    /// Per executor stage, every `(vw, stage)` that ran tasks.
    pub stages: Vec<StageOccupancy>,
    /// Per physical GPU of every VW.
    pub gpus: Vec<GpuOccupancy>,
}

impl OccupancyAudit {
    /// Measures peak activation occupancy from `stats`' span trace and
    /// pairs it with `schedule`'s declared accounting.
    ///
    /// Occupancy events: +1 when a forward span ends (activations
    /// materialized), −1 when the matching backward span ends
    /// (released). The wave schedule's fused last-stage task carries
    /// both, so it contributes a net-zero handoff; recompute spans are
    /// stage-local re-runs and contribute nothing.
    pub fn measure(
        stats: &RunStats,
        vws: &[VirtualWorker],
        schedule: &Schedule,
        nm: usize,
    ) -> OccupancyAudit {
        let fused = schedule.fused_last_stage();
        let colocated = schedule.colocated_stages();
        // The occupancy deltas one span contributes, all at its end,
        // keyed by (vw, stage).
        let deltas = |tag: &SpanTag| -> Option<(usize, usize, &'static [i64])> {
            match *tag {
                SpanTag::Forward { vw, stage, .. } => Some((vw as usize, stage as usize, &[1])),
                SpanTag::Backward { vw, stage, .. } => {
                    let (vw, stage) = (vw as usize, stage as usize);
                    // The fused task is its own forward.
                    let own_forward = fused && stage + 1 == vws[vw].stages();
                    Some((vw, stage, if own_forward { &[-1, 1] } else { &[-1] }))
                }
                _ => None,
            }
        };
        // Dense slots: (vw, stage) is slot `stage_base[vw] + stage`,
        // (vw, physical gpu) is slot `gpu_base[vw] + gpu`.
        let mut stage_base = Vec::with_capacity(vws.len());
        let mut gpu_base = Vec::with_capacity(vws.len());
        let (mut stage_slots, mut gpu_slots) = (0, 0);
        for vw in vws {
            stage_base.push(stage_slots);
            gpu_base.push(gpu_slots);
            stage_slots += vw.stages();
            gpu_slots += vw.stages() / colocated;
        }
        let slots_of = |vw: usize, stage: usize| -> (usize, usize) {
            let gpus = vws[vw].stages() / colocated;
            (stage_base[vw] + stage, gpu_base[vw] + stage % gpus)
        };
        // Two passes over the trace: count each slot's events, then
        // place them at prefix offsets into one flat buffer per keying.
        let mut stage_start = vec![0usize; stage_slots + 1];
        let mut gpu_start = vec![0usize; gpu_slots + 1];
        for span in stats.trace.spans() {
            if let Some((vw, stage, ds)) = deltas(&span.tag) {
                let (ss, gs) = slots_of(vw, stage);
                stage_start[ss + 1] += ds.len();
                gpu_start[gs + 1] += ds.len();
            }
        }
        for i in 1..stage_start.len() {
            stage_start[i] += stage_start[i - 1];
        }
        for i in 1..gpu_start.len() {
            gpu_start[i] += gpu_start[i - 1];
        }
        let total = stage_start[stage_slots];
        let mut stage_evs = vec![(SimTime::ZERO, 0i64); total];
        let mut gpu_evs = vec![(SimTime::ZERO, 0i64); total];
        let mut stage_fill = stage_start[..stage_slots].to_vec();
        let mut gpu_fill = gpu_start[..gpu_slots].to_vec();
        for span in stats.trace.spans() {
            if let Some((vw, stage, ds)) = deltas(&span.tag) {
                let (ss, gs) = slots_of(vw, stage);
                for &d in ds {
                    stage_evs[stage_fill[ss]] = (span.end, d);
                    stage_fill[ss] += 1;
                    gpu_evs[gpu_fill[gs]] = (span.end, d);
                    gpu_fill[gs] += 1;
                }
            }
        }
        let peak = |evs: &mut [(SimTime, i64)], start: &[usize], slot: usize| {
            hetpipe_des::peak_of_events(&mut evs[start[slot]..start[slot + 1]])
        };

        let mut stages = Vec::with_capacity(stage_slots);
        let mut gpus = Vec::with_capacity(gpu_slots);
        for (vwi, vw) in vws.iter().enumerate() {
            let k = vw.stages();
            let physical = k / colocated;
            for stage in 0..k {
                stages.push(StageOccupancy {
                    vw: vwi,
                    stage,
                    measured: peak(&mut stage_evs, &stage_start, stage_base[vwi] + stage),
                    declared: schedule.max_in_flight(stage, k, nm) as i64,
                });
            }
            for gpu in 0..physical {
                let declared: i64 = (0..k)
                    .filter(|s| s % physical == gpu)
                    .map(|s| schedule.max_in_flight(s, k, nm) as i64)
                    .sum();
                gpus.push(GpuOccupancy {
                    vw: vwi,
                    gpu,
                    measured: peak(&mut gpu_evs, &gpu_start, gpu_base[vwi] + gpu),
                    declared,
                });
            }
        }
        OccupancyAudit { stages, gpus }
    }

    /// Every stage or GPU whose measured peak exceeds its declaration,
    /// rendered for reporting. Empty iff the run was sound.
    pub fn violations(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .stages
            .iter()
            .filter(|s| !s.sound())
            .map(|s| format!("stage occupancy violation: {s}"))
            .collect();
        v.extend(
            self.gpus
                .iter()
                .filter(|g| !g.sound())
                .map(|g| format!("gpu occupancy violation: {g}")),
        );
        v
    }

    /// True when every measured peak is within its declaration.
    pub fn is_sound(&self) -> bool {
        self.stages.iter().all(StageOccupancy::sound) && self.gpus.iter().all(GpuOccupancy::sound)
    }

    /// Folds the audit's trace-measured peaks into matching
    /// occupancy-bound triples by entity, completing the
    /// `measured ≤ structural ≤ declared` chain when the triples came
    /// from the static verifier's structural pass
    /// (`hetpipe_des::check_bounds` then judges all three at once).
    /// Entities the trace never observed are left untouched.
    pub fn merge_measured(&self, bounds: &mut [hetpipe_des::OccupancyBound]) {
        use hetpipe_des::BoundEntity;
        for bound in bounds.iter_mut() {
            let measured = match bound.entity {
                BoundEntity::Stage { vw, stage } => self
                    .stages
                    .iter()
                    .find(|s| s.vw == vw && s.stage == stage)
                    .map(|s| s.measured),
                BoundEntity::Gpu { vw, gpu } => self
                    .gpus
                    .iter()
                    .find(|g| g.vw == vw && g.gpu == gpu)
                    .map(|g| g.measured),
            };
            if let Some(measured) = measured {
                bound.measured = Some(measured);
            }
        }
    }

    /// Panics with the full violation list unless the audit is sound.
    pub fn assert_sound(&self, label: &str) {
        let violations = self.violations();
        assert!(
            violations.is_empty(),
            "{label}: trace-measured activation occupancy exceeds the declared \
             memory accounting:\n  {}",
            violations.join("\n  ")
        );
    }
}
