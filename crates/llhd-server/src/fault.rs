//! Deterministic fault injection for the chaos harness (the
//! `fault-injection` cargo feature; never compiled into release builds
//! unless asked for).
//!
//! A [`FaultPlan`] is a seed plus a per-site injection rate. Every
//! decision is a pure function of `(seed, site, n)` where `n` is the
//! site's own draw counter — so a given seed replays the *same* fault
//! sequence at each site across runs, regardless of thread interleaving
//! between sites. Sites:
//!
//! | site            | effect                                                  |
//! |-----------------|---------------------------------------------------------|
//! | `sim.panic`     | a run-control probe panics at a plan-chosen cycle       |
//! | `io.read.slow`  | the connection read sleeps a few milliseconds           |
//! | `io.read.short` | the connection read returns at most one byte            |
//! | `io.read.error` | the connection read fails with `ConnectionReset`        |
//! | `queue.pressure`| phantom jobs inflate the in-flight count admission sees |
//!
//! Rates are expressed in 256ths: a rate of 32 injects on ~12.5% of
//! draws. The chaos integration test (`tests/chaos.rs`) drives a seeded
//! plan with concurrent clients and asserts the server answers every
//! surviving request well-formed and outlives the storm.

use std::io::{self, Read};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A named injection site (index into the plan's rate/counter tables).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Site {
    /// Panic inside a simulation job, mid-run, at a plan-chosen cycle.
    SimPanic = 0,
    /// Delay a connection read.
    IoReadSlow = 1,
    /// Truncate a connection read to one byte.
    IoReadShort = 2,
    /// Fail a connection read with `ConnectionReset`.
    IoReadError = 3,
    /// Inflate the in-flight job count seen by admission control.
    QueuePressure = 4,
}

const SITE_COUNT: usize = 5;

const SITES: [(Site, &str); SITE_COUNT] = [
    (Site::SimPanic, "sim.panic"),
    (Site::IoReadSlow, "io.read.slow"),
    (Site::IoReadShort, "io.read.short"),
    (Site::IoReadError, "io.read.error"),
    (Site::QueuePressure, "queue.pressure"),
];

impl Site {
    /// The site's spec-string name (e.g. `sim.panic`).
    pub fn name(self) -> &'static str {
        SITES[self as usize].1
    }
}

/// SplitMix64 finalizer: the whole plan's determinism rests on this
/// being a pure, well-mixed function of its input.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A seeded, replayable fault schedule shared by every thread of one
/// server (see the module docs).
pub struct FaultPlan {
    seed: u64,
    /// Injection rate per site, in 256ths (0: never, 256: always).
    rates: [u16; SITE_COUNT],
    /// Draws made per site (the `n` of each decision).
    draws: [AtomicU64; SITE_COUNT],
    /// Faults actually injected per site (for test assertions).
    injected: [AtomicU64; SITE_COUNT],
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("seed", &self.seed)
            .field("rates", &self.rates)
            .finish_non_exhaustive()
    }
}

impl FaultPlan {
    /// A plan with the given seed and all rates zero (inject nothing).
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rates: [0; SITE_COUNT],
            draws: Default::default(),
            injected: Default::default(),
        }
    }

    /// Set a site's injection rate in 256ths (clamped to 256).
    pub fn with_rate(mut self, site: Site, per_256: u16) -> FaultPlan {
        self.rates[site as usize] = per_256.min(256);
        self
    }

    /// Parse a spec string like
    /// `seed=42,sim.panic=16,io.read.error=4,queue.pressure=8`
    /// (unlisted sites stay at rate 0).
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending clause.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut seed = 0u64;
        let mut rates = [0u16; SITE_COUNT];
        for clause in spec.split(',').filter(|c| !c.trim().is_empty()) {
            let (key, value) = clause
                .split_once('=')
                .ok_or_else(|| format!("fault spec clause {:?} is not key=value", clause))?;
            let (key, value) = (key.trim(), value.trim());
            if key == "seed" {
                seed = value
                    .parse()
                    .map_err(|_| format!("fault seed {:?} is not a u64", value))?;
                continue;
            }
            let site = SITES
                .iter()
                .find(|(_, name)| *name == key)
                .map(|&(site, _)| site)
                .ok_or_else(|| format!("unknown fault site {:?}", key))?;
            rates[site as usize] = value
                .parse::<u16>()
                .map_err(|_| format!("fault rate {:?} is not in 0..=256", value))?
                .min(256);
        }
        let mut plan = FaultPlan::new(seed);
        plan.rates = rates;
        Ok(plan)
    }

    /// Draw the site's next decision word (advances its counter).
    fn draw(&self, site: Site) -> u64 {
        let n = self.draws[site as usize].fetch_add(1, Ordering::Relaxed);
        mix(mix(self.seed ^ (site as u64 + 1)) ^ n)
    }

    /// One inject-or-not decision at `site`; counts injections.
    fn hit(&self, site: Site) -> Option<u64> {
        let word = self.draw(site);
        if (word & 0xff) < self.rates[site as usize] as u64 {
            self.injected[site as usize].fetch_add(1, Ordering::Relaxed);
            Some(word >> 8)
        } else {
            None
        }
    }

    /// Decide whether *this* simulation job should panic, and at which
    /// scheduler cycle (small, so short-running jobs still reach it).
    pub fn sim_panic_cycle(&self) -> Option<u64> {
        self.hit(Site::SimPanic).map(|word| word % 32)
    }

    /// Phantom in-flight jobs for admission control: zero most of the time,
    /// a burst of 1..=32 pretend jobs when the site fires.
    pub fn queue_pressure(&self) -> usize {
        match self.hit(Site::QueuePressure) {
            Some(word) => (word % 32) as usize + 1,
            None => 0,
        }
    }

    /// Faults injected so far at `site`.
    pub fn injected(&self, site: Site) -> u64 {
        self.injected[site as usize].load(Ordering::Relaxed)
    }

    /// Faults injected so far across all sites.
    pub fn injected_total(&self) -> u64 {
        SITES.iter().map(|&(site, _)| self.injected(site)).sum()
    }
}

/// A `Read` adapter that injects the plan's `io.read.*` faults in front
/// of a connection's read side: slow reads, one-byte short reads, and
/// hard `ConnectionReset` failures. Timeout errors from the underlying
/// stream (the shutdown-poll ticks) pass through undisturbed and do not
/// consume draws.
pub struct FaultyReader<R> {
    inner: R,
    plan: Arc<FaultPlan>,
}

impl<R: Read> FaultyReader<R> {
    /// Wrap `inner` with the plan's read faults.
    pub fn new(inner: R, plan: Arc<FaultPlan>) -> FaultyReader<R> {
        FaultyReader { inner, plan }
    }
}

impl<R: Read> Read for FaultyReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.plan.hit(Site::IoReadError).is_some() {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                "injected fault: read error (site io.read.error)",
            ));
        }
        if self.plan.hit(Site::IoReadSlow).is_some() {
            std::thread::sleep(Duration::from_millis(2));
        }
        if self.plan.hit(Site::IoReadShort).is_some() && buf.len() > 1 {
            return self.inner.read(&mut buf[..1]);
        }
        self.inner.read(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_replay_per_site() {
        let a = FaultPlan::new(7).with_rate(Site::SimPanic, 64);
        let b = FaultPlan::new(7).with_rate(Site::SimPanic, 64);
        let seq_a: Vec<_> = (0..64).map(|_| a.sim_panic_cycle()).collect();
        let seq_b: Vec<_> = (0..64).map(|_| b.sim_panic_cycle()).collect();
        assert_eq!(seq_a, seq_b);
        assert!(
            seq_a.iter().any(Option::is_some),
            "rate 64/256 over 64 draws must fire"
        );
        assert!(
            seq_a.iter().any(Option::is_none),
            "rate 64/256 must not always fire"
        );
        assert_eq!(
            a.injected(Site::SimPanic),
            seq_a.iter().flatten().count() as u64
        );
    }

    #[test]
    fn seeds_change_the_schedule() {
        let a = FaultPlan::new(1).with_rate(Site::QueuePressure, 128);
        let b = FaultPlan::new(2).with_rate(Site::QueuePressure, 128);
        let seq_a: Vec<_> = (0..64).map(|_| a.queue_pressure()).collect();
        let seq_b: Vec<_> = (0..64).map(|_| b.queue_pressure()).collect();
        assert_ne!(seq_a, seq_b);
    }

    #[test]
    fn spec_round_trip_and_rejects() {
        let plan = FaultPlan::parse("seed=42, sim.panic=16, io.read.error=300").unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.rates[Site::SimPanic as usize], 16);
        assert_eq!(
            plan.rates[Site::IoReadError as usize],
            256,
            "rates clamp at 256"
        );
        assert!(FaultPlan::parse("bogus.site=1").is_err());
        assert!(FaultPlan::parse("seed=notanumber").is_err());
        assert!(FaultPlan::parse("sim.panic").is_err());
    }

    #[test]
    fn faulty_reader_injects_short_and_error() {
        let plan = Arc::new(
            FaultPlan::new(9)
                .with_rate(Site::IoReadShort, 256)
                .with_rate(Site::IoReadError, 0),
        );
        let data = b"hello".to_vec();
        let mut reader = FaultyReader::new(&data[..], Arc::clone(&plan));
        let mut buf = [0u8; 8];
        assert_eq!(
            reader.read(&mut buf).unwrap(),
            1,
            "short site truncates to one byte"
        );

        let plan = Arc::new(FaultPlan::new(9).with_rate(Site::IoReadError, 256));
        let mut reader = FaultyReader::new(&data[..], Arc::clone(&plan));
        let err = reader.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::ConnectionReset);
        assert_eq!(plan.injected(Site::IoReadError), 1);
    }
}
