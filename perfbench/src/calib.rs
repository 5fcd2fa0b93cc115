//! Host-speed calibration.
//!
//! Shared virtual machines change speed by 10–30% over seconds to
//! minutes (frequency, neighbour load, stolen time), and that drift
//! moves every wall-clock time a run reports. The benchmark therefore
//! runs a fixed reference kernel right after each timed operation, for
//! about a tenth of the operation's time, and scales the operation's
//! time by `nominal kernel time / measured kernel time` over the
//! pass: a reported time is what the host would have measured if it
//! ran the reference kernel in exactly [`KERNEL_NOMINAL_SECS`]. The raw
//! times are printed alongside.
//!
//! The kernel is an event-queue loop (binary-heap pushes and pops of
//! pseudo-random timestamps), the same kind of work as the simulator's
//! event loop, so both slow down together when the host does. It is
//! part of the benchmark, not of the program under test; changing it
//! or the nominal time changes every normalised number.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Kernel time the reported times are normalised to: about the
/// kernel's median on a 2-vCPU Intel Xeon virtual machine.
pub const KERNEL_NOMINAL_SECS: f64 = 0.0013;

/// Pushes per kernel run.
const PUSHES: u64 = 15_000;

/// Queue depth the kernel keeps.
const DEPTH: usize = 4_000;

/// Kernel time spent after an operation, as a share of its time.
const SAMPLE_SHARE: f64 = 0.1;

/// Runs the reference kernel once; returns its wall time in seconds.
fn kernel_secs() -> f64 {
    let start = Instant::now();
    let mut queue = BinaryHeap::with_capacity(DEPTH + 1);
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    let mut acc = 0u64;
    for i in 0..PUSHES {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        queue.push(Reverse((x >> 20, i)));
        if queue.len() > DEPTH {
            if let Some(Reverse((t, _))) = queue.pop() {
                acc = acc.wrapping_add(t);
            }
        }
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64()
}

/// Accumulates kernel runs over one measurement window.
#[derive(Debug, Default, Clone)]
pub struct Calibrator {
    runs: u64,
    secs: f64,
}

impl Calibrator {
    /// Runs the kernel once.
    pub fn sample(&mut self) {
        self.secs += kernel_secs();
        self.runs += 1;
    }

    /// Runs the kernel at least once and until it has used about a
    /// tenth of `measured_secs`, the operation just timed.
    pub fn sample_after(&mut self, measured_secs: f64) {
        let start = self.secs;
        loop {
            self.sample();
            if self.secs - start >= SAMPLE_SHARE * measured_secs {
                break;
            }
        }
    }

    /// Adds another window's kernel runs to this one.
    pub fn merge(&mut self, other: &Calibrator) {
        self.runs += other.runs;
        self.secs += other.secs;
    }

    /// Mean kernel time so far, seconds.
    pub fn mean_secs(&self) -> f64 {
        self.secs / self.runs as f64
    }

    /// The factor that normalises times measured in this window.
    pub fn factor(&self) -> f64 {
        KERNEL_NOMINAL_SECS / self.mean_secs()
    }
}
