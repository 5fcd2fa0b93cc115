//! An in-tree, loom-style exhaustive-interleaving model checker.
//!
//! The checker explores a *shadow* protocol: a pure state machine
//! whose ops each model one atomic critical section of the real
//! implementation (see [`hetpipe_core::plankey::shadow`] for why that
//! modeling is faithful for the plan caches — every real op runs
//! under a shard lock). Given one op *program* per virtual thread, the
//! deterministic scheduler enumerates **every** interleaving of the
//! programs by depth-first search over scheduling choices, cloning the
//! state at each branch point and checking the protocol invariant
//! after every step. No threads are spawned and no timing is
//! involved: for `t` threads with `n₁..n_t` ops the search visits
//! exactly the multinomial `(Σnᵢ)! / Πnᵢ!` interleavings — e.g. 20
//! for 2 threads × 3 ops, 210 for 3 threads of 3+2+2 ops — so a green
//! run is a proof over the step semantics, not a sample.
//!
//! This is deliberately smaller than `loom`: it assumes ops are atomic
//! steps (sequential consistency over critical sections — which the
//! shard-lock serialization provides) rather than exploring relaxed
//! memory orders, and it needs no external crates.

use std::fmt::Debug;

/// A shadow protocol the checker can explore: clonable state, atomic
/// ops, and the invariant to check at every reachable state.
pub trait ShadowSpec {
    /// The protocol state. Cloned at every scheduling branch.
    type State: Clone;
    /// One atomic step. `Copy + Debug` so counterexample schedules can
    /// be reported.
    type Op: Copy + Debug;

    /// The initial state.
    fn init(&self) -> Self::State;

    /// Applies one atomic step taken by `thread`.
    fn apply(&self, state: &mut Self::State, thread: usize, op: Self::Op);

    /// The invariant, judged on a reachable state. `Err` is a
    /// violation and aborts the search with a counterexample.
    fn check(&self, state: &Self::State) -> Result<(), String>;
}

/// Statistics of a completed (violation-free) exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Explored {
    /// Complete interleavings enumerated (leaves of the search tree).
    pub interleavings: u64,
    /// Total steps applied (internal nodes; states visited minus the
    /// root).
    pub steps: u64,
}

/// A counterexample: the exact interleaving prefix that reached a
/// violating state, and the invariant's message there.
#[derive(Debug, Clone)]
pub struct Violation<Op> {
    /// The schedule: `(thread, op)` in execution order.
    pub schedule: Vec<(usize, Op)>,
    /// The invariant's description of what broke.
    pub message: String,
}

impl<Op: Debug> std::fmt::Display for Violation<Op> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{}", self.message)?;
        write!(f, "  counterexample schedule:")?;
        for (thread, op) in &self.schedule {
            write!(f, " t{thread}:{op:?}")?;
        }
        Ok(())
    }
}

/// Exhaustively explores all interleavings of `programs` (one op list
/// per virtual thread) over `spec`, checking the invariant after
/// every step of every interleaving. Returns the exploration counts,
/// or the first counterexample found.
pub fn explore<S: ShadowSpec>(
    spec: &S,
    programs: &[Vec<S::Op>],
) -> Result<Explored, Violation<S::Op>> {
    let mut stats = Explored {
        interleavings: 0,
        steps: 0,
    };
    let mut pcs = vec![0usize; programs.len()];
    let mut path = Vec::new();
    let init = spec.init();
    spec.check(&init).map_err(|message| Violation {
        schedule: Vec::new(),
        message,
    })?;
    dfs(spec, programs, &mut pcs, &init, &mut path, &mut stats)?;
    Ok(stats)
}

fn dfs<S: ShadowSpec>(
    spec: &S,
    programs: &[Vec<S::Op>],
    pcs: &mut [usize],
    state: &S::State,
    path: &mut Vec<(usize, S::Op)>,
    stats: &mut Explored,
) -> Result<(), Violation<S::Op>> {
    let mut progressed = false;
    for thread in 0..programs.len() {
        if pcs[thread] >= programs[thread].len() {
            continue;
        }
        progressed = true;
        let op = programs[thread][pcs[thread]];
        let mut next = state.clone();
        spec.apply(&mut next, thread, op);
        stats.steps += 1;
        path.push((thread, op));
        pcs[thread] += 1;
        spec.check(&next).map_err(|message| Violation {
            schedule: path.clone(),
            message,
        })?;
        dfs(spec, programs, pcs, &next, path, stats)?;
        pcs[thread] -= 1;
        path.pop();
    }
    if !progressed {
        stats.interleavings += 1;
    }
    Ok(())
}

/// The number of interleavings of programs with the given lengths —
/// the multinomial coefficient `(Σnᵢ)! / Πnᵢ!`. What [`explore`]'s
/// `interleavings` count must equal; exposed so callers can assert
/// their exploration really was exhaustive.
pub fn interleaving_count(lens: &[usize]) -> u64 {
    let mut count: u128 = 1;
    let mut total: u128 = 0;
    for &len in lens {
        // Multiply by C(total + len, len), computed incrementally to
        // stay exact in u128.
        for i in 1..=len as u128 {
            total += 1;
            count = count * total / i;
        }
    }
    u64::try_from(count).expect("interleaving count fits u64 for checker-scale programs")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy spec: threads append their id to a log; the invariant
    /// optionally forbids a given prefix (to test counterexamples).
    struct Toy {
        forbidden: Option<Vec<usize>>,
    }

    impl ShadowSpec for Toy {
        type State = Vec<usize>;
        type Op = usize;

        fn init(&self) -> Vec<usize> {
            Vec::new()
        }

        fn apply(&self, state: &mut Vec<usize>, thread: usize, _op: usize) {
            state.push(thread);
        }

        fn check(&self, state: &Vec<usize>) -> Result<(), String> {
            if self.forbidden.as_deref() == Some(state.as_slice()) {
                Err(format!("forbidden prefix reached: {state:?}"))
            } else {
                Ok(())
            }
        }
    }

    #[test]
    fn enumeration_is_exhaustive() {
        let spec = Toy { forbidden: None };
        // 2 threads × 3 ops: C(6,3) = 20 interleavings.
        let stats = explore(&spec, &[vec![0, 0, 0], vec![0, 0, 0]]).unwrap();
        assert_eq!(stats.interleavings, 20);
        assert_eq!(stats.interleavings, interleaving_count(&[3, 3]));
        // 3 threads of 3+2+2 ops: 7!/(3!2!2!) = 210.
        let stats = explore(&spec, &[vec![0; 3], vec![0; 2], vec![0; 2]]).unwrap();
        assert_eq!(stats.interleavings, 210);
        assert_eq!(stats.interleavings, interleaving_count(&[3, 2, 2]));
        // Steps = internal nodes of the interleaving lattice. For
        // 2×1 ops: states (0,0),(1,0),(0,1),(1,1) reached by 1+1+2
        // applications... count it directly: 4 edges.
        let stats = explore(&spec, &[vec![0], vec![0]]).unwrap();
        assert_eq!(stats.interleavings, 2);
        assert_eq!(stats.steps, 4);
    }

    #[test]
    fn violations_carry_the_schedule() {
        // Forbid the exact prefix [1, 0]: only the interleaving that
        // runs thread 1 first then thread 0 reaches it.
        let spec = Toy {
            forbidden: Some(vec![1, 0]),
        };
        let v = explore(&spec, &[vec![7], vec![9]]).unwrap_err();
        assert_eq!(
            v.schedule.iter().map(|(t, _)| *t).collect::<Vec<_>>(),
            vec![1, 0]
        );
        assert!(v.message.contains("forbidden"), "{v}");
        let rendered = v.to_string();
        assert!(rendered.contains("t1:9"), "{rendered}");
    }

    #[test]
    fn multinomial_counts() {
        assert_eq!(interleaving_count(&[]), 1);
        assert_eq!(interleaving_count(&[5]), 1);
        assert_eq!(interleaving_count(&[1, 1]), 2);
        assert_eq!(interleaving_count(&[3, 3]), 20);
        assert_eq!(interleaving_count(&[3, 2, 2]), 210);
        assert_eq!(interleaving_count(&[2, 2, 2]), 90);
    }

    #[test]
    fn empty_programs_are_one_interleaving() {
        let spec = Toy { forbidden: None };
        let stats = explore(&spec, &[vec![], vec![]]).unwrap();
        assert_eq!(stats.interleavings, 1);
        assert_eq!(stats.steps, 0);
    }
}
