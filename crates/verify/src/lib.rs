//! Static verification for the HetPipe reproduction: proofs about
//! schedules and the plan caches that hold *before any simulation
//! runs*.
//!
//! The rest of the workspace checks its invariants dynamically — the
//! DES audits occupancy on traces, `tests/staleness_props.rs` samples
//! the WSP algebra, stress tests race the plan cache. Each of those
//! observes *some* executions. This crate closes the gap to *all*
//! executions, for small configurations, along three axes:
//!
//! - [`graph`] — the committed op queues of every schedule become an
//!   explicit dependency DAG (program order + data edges + cross-worker
//!   WSP push/gate coupling); a topological sort is a machine-checked
//!   **deadlock-freedom certificate** per configuration, replacing the
//!   "by construction" argument, and prefix walks of the same queues
//!   give **structural occupancy bounds** completing the
//!   `measured ≤ structural ≤ declared` chain of
//!   [`hetpipe_des::OccupancyBound`].
//! - [`staleness`] — the WSP staleness algebra is checked at **every**
//!   minibatch of a warmup-covering horizon, with a wave-shift
//!   invariance witness as the induction step extending the finite
//!   check to the infinite stream.
//! - [`isolation`] / [`lookahead`] — the **WSP coupling
//!   certificates**: properties of the schedule *shape* that the
//!   paper's WSP (§5) promises. Every dependency-graph node declares a
//!   read/write footprint in the [`hetpipe_des::footprint`]
//!   vocabulary, whose resources are owned by one VW, by the
//!   parameter server, or by the environment. The isolation pass
//!   proves, edge by edge, that (1) every committed dependence is
//!   *explained* by its endpoints' footprints — an unexplained edge
//!   means an event class under-declares what it touches — and
//!   (2) every cross-VW dependence is the WSP push→gate coupling on
//!   PS-owned state, emitting an [`isolation::IsolationCertificate`]
//!   per configuration (fault scripts compose in as write-only
//!   environment rate edges). The lookahead pass proves each VW's
//!   committed gates sit exactly where
//!   [`hetpipe_schedule::WspParams::required_wave`] puts them —
//!   `s_global + 1 = (D + 2)·Nm − 1` stage-0 forwards of warmup, then
//!   exactly `Nm` per gate-to-gate segment — and each push right
//!   after its wave's last backward ([`lookahead::LookaheadWitness`]).
//! - [`checker`] / [`cachecheck`] — an in-tree, loom-style
//!   **exhaustive-interleaving model checker**: pure shadow state
//!   machines (one atomic step per real critical section) are driven
//!   through *every* interleaving of the scenario programs (counts
//!   pinned to their multinomials), proving the plan caches'
//!   `MatchSeq` invariant. A deliberately broken variant (a blind
//!   cache insert) is kept in-tree as a negative control: the checker
//!   must find its counterexample, which is what makes the green runs
//!   on the real protocol evidence instead of vacuity.
//!
//! Every pass here consumes the same artifacts the executor runs —
//! [`hetpipe_schedule::committed_queues`] extraction, the real
//! [`hetpipe_schedule::WspParams`] algebra, shadows pinned to the real
//! cache by parity tests — so a proof about the model is a proof
//! about the code paths, not about a drawing of them.
//!
//! The `verify_all` binary (in `hetpipe-bench`) sweeps the standing
//! model/cluster/schedule matrix through all of these axes and exits
//! non-zero on any violation; CI runs it next to the benchmark gates.

pub mod cachecheck;
pub mod checker;
pub mod graph;
pub mod isolation;
pub mod lookahead;
pub mod staleness;

pub use cachecheck::{check_broken_protocol, check_seq_protocol, ProtocolReport, SeqProtocol};
pub use checker::{explore, interleaving_count, Explored, ShadowSpec, Violation};
pub use graph::{
    dependency_graph, structural_occupancy, verify_deadlock_free, verify_queues, CycleError,
    DagProof, DepEdge, DepGraphData, DepNode, EdgeKind, OccupancyReport,
};
pub use isolation::{
    verify_isolation, verify_isolation_with, verify_script_isolation, verify_vw_isolation,
    FootprintModel, IsolationCertificate, IsolationViolation, IsolationViolationClass,
};
pub use lookahead::{lookahead_bound, verify_lookahead, LookaheadWitness};
pub use staleness::{
    interleaved_chunk_versions, verify_version_rule, verify_wsp_bound, ChunkVersionDemand,
    StalenessProof,
};
