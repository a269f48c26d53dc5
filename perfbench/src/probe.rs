//! Host-speed probe: fixed kernels, timed between the workload's
//! operations (outside every timed window), whose times say how fast the
//! shared host ran while the workload did.
//!
//! On a host shared with other tenants the same code runs at different
//! speeds from one moment to the next: a core's sibling thread or a
//! neighbour's cache traffic slows it, for stretches of a fraction of a
//! second to minutes, by up to 1.6×.  Two kernels that do not depend on
//! the program at all follow that drift:
//!
//! * `lookup`: hash-map lookups over a table that fits in L1/L2 — the
//!   short branchy work of the request path, slowed by a busy sibling;
//! * `memory`: random read-modify-writes over a buffer four times a
//!   core's L2 — the solvers' traffic, slowed by last-level-cache and
//!   memory contention.
//!
//! A workload divides each wall time by the slowdown measured around it
//! ("host-normalised"; `METRICS.md` says which kernel and how close):
//! the time the work would have taken on the calm reference host.  A
//! change to the program moves a normalised time by the same factor as
//! the raw one; raw times are printed beside them.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// A fixed (unkeyed) hasher, so the lookup table is the same every run.
type Fixed = BuildHasherDefault<std::collections::hash_map::DefaultHasher>;

/// Memory buffer size in 64-bit words (16 MiB).
const WORDS: usize = 1 << 21;
/// Read-modify-writes per memory sample.
const MEMORY_STEPS: u64 = 100_000;
/// Keys of the lookup table.
const KEYS: u64 = 4096;
/// Lookups per lookup sample.
const LOOKUP_STEPS: u64 = 25_000;
/// Lookups per moment sample (about 0.1 ms).
const MOMENT_LOOKUPS: u64 = 8_000;
/// Lookups per micro-sample (about a microsecond).
const UNIT_LOOKUPS: u64 = 64;
/// Micro-samples whose median is the current speed.
const WINDOW: usize = 33;
/// Median kernel times on the reference host (2 vCPUs of an "Intel(R)
/// Xeon(R) Processor", sibling idle): a memory and a lookup sample in
/// milliseconds, a micro-sample in microseconds.
const REFERENCE_MEMORY_MS: f64 = 1.5;
const REFERENCE_LOOKUP_MS: f64 = 0.3;
const REFERENCE_UNIT_US: f64 = 0.8;
/// Resident size of the probe, MiB: subtracted from the process's peak
/// RSS so `peak_rss_mb` stays the workload's own.
pub const RESIDENT_MB: f64 = (WORDS * 8) as f64 / (1024.0 * 1024.0);

/// The probe's buffers and its samples.
pub struct HostProbe {
    buf: Vec<u64>,
    table: HashMap<u64, u64, Fixed>,
    state: u64,
    cursor: u64,
    memory_ms: Vec<f64>,
    lookup_ms: Vec<f64>,
    /// The last `WINDOW` micro-samples, microseconds (ring).
    recent_us: [f64; WINDOW],
    micro_samples: usize,
    /// Their median against the reference host, kept up to date by
    /// `micro_sample` so reading it costs the request path nothing.
    current: f64,
}

impl Default for HostProbe {
    fn default() -> Self {
        Self::new()
    }
}

impl HostProbe {
    /// Allocates and touches the buffers (resident from here on).
    pub fn new() -> Self {
        HostProbe {
            buf: (0..WORDS as u64).collect(),
            table: (0..KEYS).map(|k| (key(k), k)).collect(),
            state: 0x9e37_79b9_7f4a_7c15,
            cursor: 0,
            memory_ms: Vec::new(),
            lookup_ms: Vec::new(),
            recent_us: [0.0; WINDOW],
            micro_samples: 0,
            current: 1.0,
        }
    }

    /// Times one run of each kernel; returns the slowdown of the moment,
    /// the geometric mean of the two kernels' slowdowns.
    pub fn sample(&mut self) -> f64 {
        let lookup = self.lookup_ms();
        self.lookup_ms.push(lookup);
        let started = Instant::now();
        self.memory();
        let memory = started.elapsed().as_secs_f64() * 1e3;
        self.memory_ms.push(memory);
        (lookup / REFERENCE_LOOKUP_MS * memory / REFERENCE_MEMORY_MS).sqrt()
    }

    /// Times `work`, with a lookup sample right before and right after
    /// it; returns its value, its wall time in seconds, and the slowdown
    /// of the moment (the two samples' mean against the reference host).
    pub fn time<T>(&mut self, work: impl FnOnce() -> T) -> (T, f64, f64) {
        let before = self.lookup_ms();
        let started = Instant::now();
        let value = work();
        let seconds = started.elapsed().as_secs_f64();
        let after = self.lookup_ms();
        (value, seconds, (before + after) / 2.0 / REFERENCE_LOOKUP_MS)
    }

    /// Times a short lookup sample; returns the slowdown of the moment.
    pub fn moment(&mut self) -> f64 {
        let started = Instant::now();
        self.lookups(MOMENT_LOOKUPS);
        let ms = started.elapsed().as_secs_f64() * 1e3;
        ms / (REFERENCE_LOOKUP_MS * MOMENT_LOOKUPS as f64 / LOOKUP_STEPS as f64)
    }

    fn lookup_ms(&mut self) -> f64 {
        let started = Instant::now();
        self.lookups(LOOKUP_STEPS);
        started.elapsed().as_secs_f64() * 1e3
    }

    /// Times one micro-sample: a microsecond of the lookup kernel, short
    /// enough to run while an open-loop generator would otherwise spin.
    pub fn micro_sample(&mut self) {
        let started = Instant::now();
        self.lookups(UNIT_LOOKUPS);
        self.recent_us[self.micro_samples % WINDOW] = started.elapsed().as_secs_f64() * 1e6;
        self.micro_samples += 1;
        let filled = self.micro_samples.min(WINDOW);
        self.current = crate::stats::median(&self.recent_us[..filled]) / REFERENCE_UNIT_US;
    }

    /// Micro-samples taken.
    pub fn micro_samples(&self) -> usize {
        self.micro_samples
    }

    /// The current slowdown: the median of the last micro-samples against
    /// the reference host (1 before the first).
    pub fn current_slowdown(&self) -> f64 {
        self.current
    }

    fn lookups(&mut self, n: u64) {
        let mut acc = 0u64;
        for _ in 0..n {
            self.cursor = (self.cursor + 1) % KEYS;
            acc = acc.wrapping_add(self.table.get(&key(self.cursor)).copied().unwrap_or(0));
        }
        self.state ^= std::hint::black_box(acc);
    }

    fn memory(&mut self) {
        let n = self.buf.len() as u64;
        let mut x = self.state;
        let mut acc = 0u64;
        for _ in 0..MEMORY_STEPS {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let i = ((x >> 17) % n) as usize;
            acc ^= self.buf[i];
            self.buf[i] = acc.wrapping_add(x);
        }
        self.state = std::hint::black_box(x ^ acc);
    }

    /// One line with both kernels' medians, for the run's notes.
    pub fn describe(&self) -> String {
        let memory = crate::stats::median(&self.memory_ms);
        let lookup = crate::stats::median(&self.lookup_ms);
        format!(
            "host probe over {} samples: memory {memory:.4} ms (slowdown {:.4}), lookup {lookup:.4} ms (slowdown {:.4})",
            self.memory_ms.len(),
            memory / REFERENCE_MEMORY_MS,
            lookup / REFERENCE_LOOKUP_MS
        )
    }
}

fn key(k: u64) -> u64 {
    k.wrapping_mul(2_654_435_761)
}

/// Medians of a run's set-up repetitions `(seconds, slowdown of the
/// moment)`: raw, and each divided by its own slowdown.
pub fn setup_medians(setups: &[(f64, f64)]) -> (f64, f64) {
    let raw: Vec<f64> = setups.iter().map(|&(s, _)| s).collect();
    let local: Vec<f64> = setups.iter().map(|&(s, k)| s / k).collect();
    (crate::stats::median(&raw), crate::stats::median(&local))
}

/// `latencies`, each divided by the mean slowdown of the samples taken
/// just before and just after it (`slowdowns` holds one sample before
/// each operation and one after the last).
pub fn normalise(latencies: &[f64], slowdowns: &[f64]) -> Vec<f64> {
    assert_eq!(slowdowns.len(), latencies.len() + 1);
    latencies
        .iter()
        .zip(slowdowns.windows(2))
        .map(|(ms, around)| ms * 2.0 / (around[0] + around[1]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_latency_takes_the_mean_slowdown_around_it() {
        let normalised = normalise(&[10.0, 30.0], &[1.0, 3.0, 1.0]);
        assert_eq!(normalised, vec![5.0, 15.0]);
    }

    #[test]
    fn setups_are_normalised_one_by_one() {
        let (raw, local) = setup_medians(&[(2.0, 2.0), (1.0, 1.0), (6.0, 2.0)]);
        assert_eq!((raw, local), (2.0, 1.0));
    }

    #[test]
    fn the_current_slowdown_is_one_before_any_micro_sample() {
        let mut probe = HostProbe::new();
        assert_eq!(probe.current_slowdown(), 1.0);
        probe.micro_sample();
        assert!(probe.current_slowdown() > 0.0);
        assert_eq!(probe.micro_samples(), 1);
    }
}
