//! Host speed, measured beside the program.
//!
//! The benchmark runs on shared virtual machines whose speed drifts by
//! tens of percent over seconds to minutes. The drift is mostly cache
//! and memory contention from other tenants: on a 2-core VM, a
//! dependent integer chain moved by about 5 % while the program's ops
//! moved by 30 %, and kernels that miss a core's L2 cache moved with
//! them. So a fixed reference kernel that misses L2 — a sequential
//! sweep over 8 MiB and a dependent random walk over 4 MiB — is timed
//! between ops, and each op's time is divided by the slowdown it
//! measured. The kernel is the benchmark's own code, so no change to
//! the repository moves it.

use crate::metrics::{median, peak_rss_mb};
use std::time::Instant;

/// Words (8 bytes each) in the swept buffer: 8 MiB.
const SWEEP_WORDS: usize = 1 << 20;

/// Sweeps over the buffer per probe.
const SWEEPS: usize = 4;

/// Words in the walked buffer: 4 MiB (a power of two).
const WALK_WORDS: usize = 1 << 19;

/// Dependent loads of the random walk per probe.
const WALK_STEPS: usize = 200_000;

/// The sweeps' time on the reference host (a 2-core Xeon VM at rest),
/// in ms.
const NOMINAL_SWEEP_MS: f64 = 8.4;

/// The walk's time on the reference host, in ms.
const NOMINAL_WALK_MS: f64 = 26.0;

/// The reference kernel and the slowdowns it measured in one run.
pub struct HostSpeed {
    sweep: Vec<u64>,
    walk: Vec<u64>,
    samples: Vec<f64>,
}

impl Default for HostSpeed {
    fn default() -> Self {
        HostSpeed::new()
    }
}

impl HostSpeed {
    /// Allocates and touches the buffers, and runs the kernel once
    /// unrecorded so later probes find it warm.
    pub fn new() -> HostSpeed {
        let mut speed = HostSpeed {
            sweep: (0..SWEEP_WORDS as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect(),
            walk: (0..WALK_WORDS as u64).collect(),
            samples: Vec::new(),
        };
        speed.kernel();
        speed
    }

    /// The kernel's two part times in ms.
    fn kernel(&mut self) -> (f64, f64) {
        // An untimed pass over both buffers first brings them back into
        // the shared cache, so the timed parts do not depend on how much
        // of it the op before them used.
        let mut ones = self
            .sweep
            .iter()
            .chain(&self.walk)
            .fold(0u32, |a, w| a.wrapping_add(w.count_ones()));
        let start = Instant::now();
        for _ in 0..SWEEPS {
            for w in self.sweep.iter_mut() {
                *w ^= *w >> 3;
                ones = ones.wrapping_add(w.count_ones());
            }
        }
        std::hint::black_box(ones);
        let sweep_ms = start.elapsed().as_secs_f64() * 1e3;

        // Each load's address depends on the value loaded before it, so
        // the walk waits out every cache miss.
        let start = Instant::now();
        let mut j = 0usize;
        let mut x = 0u64;
        for _ in 0..WALK_STEPS {
            x = x.wrapping_add(self.walk[j]);
            self.walk[j] = x;
            j = (j.wrapping_mul(5).wrapping_add(x as usize | 1)) & (WALK_WORDS - 1);
        }
        std::hint::black_box(x);
        let walk_ms = start.elapsed().as_secs_f64() * 1e3;
        (sweep_ms, walk_ms)
    }

    /// Times the kernel once and records the host's slowdown against
    /// the reference host: the geometric mean of the two parts' time
    /// ratios (1 = reference speed, 2 = half as fast).
    pub fn probe(&mut self) -> f64 {
        let (sweep_ms, walk_ms) = self.kernel();
        let slowdown = ((sweep_ms / NOMINAL_SWEEP_MS) * (walk_ms / NOMINAL_WALK_MS)).sqrt();
        self.samples.push(slowdown);
        slowdown
    }

    /// Times `f` between two probes; returns its result, its wall time
    /// in ms, and that time at reference speed (divided by the mean of
    /// the two probes' slowdowns).
    pub fn timed<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64, f64) {
        let before = self.probe();
        let start = Instant::now();
        let out = f();
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let after = self.probe();
        (out, wall_ms, wall_ms * 2.0 / (before + after))
    }

    /// The median slowdown over every probe so far (1 before the first).
    pub fn slowdown(&self) -> f64 {
        if self.samples.is_empty() {
            1.0
        } else {
            median(&self.samples)
        }
    }

    /// Probes taken so far.
    pub fn probes(&self) -> usize {
        self.samples.len()
    }

    /// The process's peak resident set in MB without the kernel's
    /// buffers, which stay resident from [`HostSpeed::new`] on.
    pub fn program_peak_rss_mb(&self) -> f64 {
        let own = ((SWEEP_WORDS + WALK_WORDS) * 8) as f64;
        peak_rss_mb() - own / (1u64 << 20) as f64
    }
}
