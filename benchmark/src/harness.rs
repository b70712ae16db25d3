//! What every workload shares: the run's parameters, the report it fills,
//! and the repeated, timed set-up.

use crate::golden::Golden;
use crate::spans::{self, Span, Tracer};
use crate::stats::median;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// A run sets up at least `MIN_SETUPS` times and goes on, up to
/// `MAX_SETUPS`, while all set-ups together have taken less than
/// `SETUP_BUDGET`: a set-up of a few milliseconds needs more samples for a
/// steady median than one of a second. `setup_s` is the median. The cap
/// is low because every further fleet a serving run spawns adds to the
/// peak memory it reports.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 5;
const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// Nanoseconds per step of the reference chain at the clock level this
/// class of host sits at most of the time (about 2.47 GHz).
pub const NOMINAL_STEP_NS: f64 = 1.223;
/// How often a client thread of a serving workload probes the clock.
pub const PROBE_EVERY: Duration = Duration::from_millis(20);

/// The reference clock.
///
/// The core clock of a vCPU here moves between levels (steps of 0.96, 1.22
/// and 1.29 ns were seen) and stays on one for seconds at a time, so a
/// whole ten-second run can sit 25% off the usual level and no amount of
/// samples inside the run averages that out. A timing taken on the wrong
/// level says nothing about the code. So each timed sample is followed by
/// a probe, a dependent multiply-add chain whose time depends on the core
/// clock and nothing else, and is scaled to [`NOMINAL_STEP_NS`]: the
/// end-to-end times are host time *at the nominal clock*. On another host
/// they stand in that host's proportion; two commits compared on one host
/// are unaffected.
///
/// A serving workload's time is spent on server threads on both vCPUs, so
/// no one probe belongs to one request: its client threads probe every
/// [`PROBE_EVERY`] between requests, and a segment's throughput and
/// latency are scaled by the median of its probes.
pub struct Clock {
    scale: bool,
    steps: Vec<f64>,
}

impl Clock {
    /// `scale: false` probes and records but leaves times as measured (the
    /// traced run, whose layer times are raw host time).
    pub fn new(scale: bool) -> Self {
        Clock {
            scale,
            steps: Vec::new(),
        }
    }

    pub fn scales(&self) -> bool {
        self.scale
    }

    /// The fastest of three short chains: a preempted one is not the clock.
    fn step() -> f64 {
        const STEPS: u64 = 20_000;
        let mut best = f64::MAX;
        for _ in 0..3 {
            let start = Instant::now();
            let mut x = 1u64;
            for i in 0..STEPS {
                x = black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
            }
            black_box(x);
            best = best.min(start.elapsed().as_nanos() as f64 / STEPS as f64);
        }
        best
    }

    /// Probe the clock of the vCPU this thread is on.
    pub fn probe(&mut self) -> f64 {
        let step = Clock::step();
        self.steps.push(step);
        step
    }

    /// `seconds`, just measured on this thread, at the nominal clock.
    pub fn nominal(&mut self, seconds: f64) -> f64 {
        let step = self.probe();
        if self.scale {
            seconds * NOMINAL_STEP_NS / step
        } else {
            seconds
        }
    }

    /// The median probe of the run (`harness.clock_step_ns`).
    pub fn median_step(&self) -> f64 {
        median(&self.steps)
    }

    /// What turns a time measured while these probes were taken into one
    /// at the nominal clock: 1 when not scaling or without a probe. The
    /// median, because a client thread that has just been woken reads a
    /// faster clock than the busy server threads see (a seventh of the
    /// probes of any serving run), and a preempted probe a slower one.
    pub fn median_factor(&self) -> f64 {
        if !self.scale || self.steps.is_empty() {
            return 1.0;
        }
        NOMINAL_STEP_NS / self.median_step()
    }

    pub fn absorb(&mut self, other: Clock) {
        self.steps.extend(other.steps);
    }

    pub fn note(&self) -> String {
        format!(
            "times scaled to the nominal clock ({} ns per step); {} probes, median step {:.4} ns",
            NOMINAL_STEP_NS,
            self.steps.len(),
            self.median_step()
        )
    }
}

pub struct Ctx {
    pub seed: u64,
    /// The measured length of the run (`--seconds`).
    pub seconds: f64,
    /// `--trace 1`: the per-layer run.
    pub trace: bool,
    pub golden: Golden,
    /// The clock origin of every span of the run.
    pub epoch: Instant,
}

impl Ctx {
    pub fn budget(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }

    pub fn tracer(&self, on: bool, lane: u32) -> Tracer {
        Tracer::new(on, self.epoch, lane)
    }
}

#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Why operations failed, first few only (stderr).
    pub failures: Vec<String>,
    pub metrics: BTreeMap<String, f64>,
    /// Samples behind a median or percentile, by metric name.
    pub samples: BTreeMap<String, u64>,
    /// Facts about the run worth printing (client count, sizes).
    pub notes: Vec<String>,
    pub spans: Vec<Span>,
    pub spans_dropped: u64,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn set_sampled(&mut self, name: &str, value: f64, samples: usize) {
        self.set(name, value);
        self.samples.insert(name.to_string(), samples as u64);
    }

    /// Count one operation; `error` is `Some` when it failed.
    pub fn op(&mut self, error: Option<String>) {
        self.attempted += 1;
        if let Some(message) = error {
            self.fail(message);
        }
    }

    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(message);
        }
    }

    pub fn absorb(&mut self, tracer: Tracer) {
        self.spans_dropped += tracer.dropped;
        self.spans.extend(tracer.into_spans());
    }

    /// `harness.unattributed_pct`: the share of the traced section's wall
    /// time (`wall_ns`, summed over client lanes) that no layer span's self
    /// time accounts for. Spans named `harness.*` are the harness's own.
    pub fn attribute(&mut self, wall_ns: f64) {
        let layered: u64 = spans::self_times(&self.spans)
            .iter()
            .filter(|(name, _)| !name.starts_with("harness."))
            .map(|(_, (_, ns))| ns)
            .sum();
        self.set(
            "harness.unattributed_pct",
            100.0 * (1.0 - layered as f64 / wall_ns).max(0.0),
        );
    }
}

/// Run `setup` several times, tearing all but the last down, and return
/// the last product. `setup_s` is the median set-up time. A run too short
/// to measure anything (`--quick`) sets up once: it only has to stay alive.
pub fn timed_setups<T>(
    ctx: &Ctx,
    report: &mut Report,
    mut clock: Option<&mut Clock>,
    mut setup: impl FnMut() -> T,
    mut teardown: impl FnMut(T),
) -> T {
    let (min, max) = if ctx.seconds < 1.0 {
        (1, 1)
    } else {
        (MIN_SETUPS, MAX_SETUPS)
    };
    let begun = Instant::now();
    let mut times = Vec::with_capacity(max);
    let mut last = None;
    while times.len() < min || (times.len() < max && begun.elapsed() < SETUP_BUDGET) {
        if let Some(previous) = last.take() {
            teardown(previous);
        }
        let start = Instant::now();
        last = Some(setup());
        let seconds = start.elapsed().as_secs_f64();
        times.push(clock.as_mut().map_or(seconds, |c| c.nominal(seconds)));
    }
    report.set_sampled("setup_s", median(&times), times.len());
    last.expect("at least one set-up")
}

/// Call `pass` until `budget` has elapsed, at least `min` times.
pub fn repeat_for(budget: Duration, min: usize, mut pass: impl FnMut()) {
    let start = Instant::now();
    let mut done = 0;
    while done < min || start.elapsed() < budget {
        pass();
        done += 1;
    }
}

/// Median seconds of `f` over at least three calls within `budget`.
pub fn median_secs(budget: Duration, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::new();
    repeat_for(budget, 3, || {
        let start = Instant::now();
        f();
        samples.push(start.elapsed().as_secs_f64());
    });
    median(&samples)
}

/// Time one call, whether or not spans are recorded.
pub fn timed<T>(tracer: &mut Tracer, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let token = tracer.enter(name);
    let start = Instant::now();
    let value = f();
    let nanos = start.elapsed().as_nanos() as f64;
    tracer.exit(token);
    (value, nanos)
}

/// Peak resident set of this process (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Keep freed memory in the process. By default glibc hands the top of the
/// heap back to the kernel once enough of it is free, and whether a pass
/// over the same inputs then faults a thousand pages back in depends on
/// where the heap happened to end: pass times of one `cold-suite` process
/// moved between levels 20% apart. The library under test is untouched;
/// only the kernel's share of a pass stops depending on heap layout. The
/// single-threaded workloads call this first thing; the serving ones do
/// not, because a server lives long enough for the allocator's own steady
/// state to be what its user gets (and with it their peak memory read a
/// third higher and less steadily).
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn keep_freed_memory() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` takes two integers and only stores tunables of the
    // allocator, under the allocator's own lock.
    unsafe {
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
        // The largest value glibc accepts: half its per-thread heap size.
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn keep_freed_memory() {}
