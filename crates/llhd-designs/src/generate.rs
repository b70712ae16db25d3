//! Seeded generators for scaled benchmark designs.
//!
//! The hand-written corpus ([`crate::all_designs`]) matches the paper's
//! Table 2 designs, which are small: two or three instances each, one
//! sensitivity island. The generators here produce designs that are
//! 10×–100× the instance count of the base corpus with a **known**
//! island structure, so the benchmark and the island analysis can assert
//! the partition they think they are measuring.
//!
//! Two families, both emitted as Behavioural LLHD assembly:
//!
//! * [`fir_bank`] — `lanes` independent FIR delay lines, each with its own
//!   clock generator and seeded tap weights. Nothing is shared between
//!   lanes, so the partition is `lanes` substantial islands (plus the
//!   inert top-entity shell).
//! * [`noc_mesh`] — `rows` independent pipelines of `cols` router tiles
//!   each. Tiles within a row share a clock and a data chain (one island
//!   per row); rows share nothing.
//!
//! Generation is deterministic: the same `(parameters, seed)` always
//! yields byte-identical source, so a benchmark baseline or a recorded
//! checkpoint stays meaningful across runs.

use llhd::ir::Module;
use std::fmt::Write as _;

/// A generated design: LLHD source plus the structural facts a test or
/// benchmark needs to assert about it.
#[derive(Clone, Debug)]
pub struct GeneratedDesign {
    /// A name encoding the family, parameters, and seed (e.g.
    /// `fir-bank-32x64-s7`).
    pub name: String,
    /// The Behavioural LLHD assembly of the design and its stimulus.
    pub llhd_source: String,
    /// The top-level entity to elaborate.
    pub top: String,
    /// The nominal clock period in nanoseconds.
    pub clock_period_ns: u128,
    /// A signal (name suffix) whose activity indicates the design is
    /// alive.
    pub probe_signal: String,
    /// The exact number of islands the partitioner must find: the
    /// independent islands plus one for the top-entity shell (an instance
    /// with no sensitivity of its own).
    pub expected_islands: usize,
    /// The exact number of elaborated instances (including the top
    /// shell).
    pub expected_instances: usize,
}

impl GeneratedDesign {
    /// Parse the generated assembly into a module.
    ///
    /// # Errors
    ///
    /// Returns the assembler's message if the source is rejected (which
    /// would indicate a bug in the generator).
    pub fn build(&self) -> Result<Module, String> {
        llhd::assembly::parse_module(&self.llhd_source).map_err(|e| e.to_string())
    }

    /// The simulation end time (in nanoseconds) for a given cycle count.
    pub fn sim_time_ns(&self, cycles: u64) -> u128 {
        self.clock_period_ns * cycles as u128 + 10
    }
}

/// A tiny deterministic generator (xorshift64*): good enough to vary tap
/// weights and stimulus increments, dependency-free, and stable across
/// platforms — the properties a reproducible corpus actually needs.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        // A zero state would be a fixed point; fold in a constant.
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// A value in `1..=max` (never zero: zero increments would freeze a
    /// stimulus and zero weights would optimize a tap away).
    fn pick(&mut self, max: u64) -> u64 {
        1 + self.next() % max
    }
}

/// A bank of `lanes` independent FIR delay lines, `taps` deep, with
/// seeded tap weights and stimulus increments.
///
/// Each lane is a pair of processes — a clock/data generator and the
/// filter itself — connected only to each other, so the partition is
/// exactly `lanes` islands of real work plus the top shell. A lane's
/// activation cost scales linearly with `taps` (load, shift, and a
/// weighted-sum chain per tick), which is the knob for making every
/// lane's island carry at least 16 IR instructions (the floor the
/// structure test checks).
pub fn fir_bank(lanes: usize, taps: usize, seed: u64) -> GeneratedDesign {
    assert!(lanes >= 1 && taps >= 1, "fir_bank needs lanes >= 1, taps >= 1");
    let mut rng = Rng::new(seed ^ (lanes as u64) << 32 ^ taps as u64);
    let mut src = String::new();
    for lane in 0..lanes {
        // The filter: on each rising clock edge, shift the delay line and
        // drive the weighted sum. Weight 2 taps contribute twice to the
        // sum chain; which taps are heavy is the seeded part.
        let weights: Vec<u64> = (0..taps).map(|_| rng.pick(2)).collect();
        writeln!(src, "proc @fir_lane_{} (i1$ %clk, i16$ %x) -> (i16$ %y) {{", lane).unwrap();
        writeln!(src, "setup:").unwrap();
        writeln!(src, "    %zero16 = const i16 0").unwrap();
        for tap in 0..taps {
            writeln!(src, "    %t{}p = var i16 %zero16", tap).unwrap();
        }
        writeln!(src, "    br %main").unwrap();
        writeln!(src, "main:").unwrap();
        writeln!(src, "    %clk0 = prb i1$ %clk").unwrap();
        writeln!(src, "    wait %sample, %clk").unwrap();
        writeln!(src, "sample:").unwrap();
        writeln!(src, "    %clk1 = prb i1$ %clk").unwrap();
        writeln!(src, "    %chg = neq i1 %clk0, %clk1").unwrap();
        writeln!(src, "    %posedge = and i1 %chg, %clk1").unwrap();
        writeln!(src, "    br %posedge, %main, %tick").unwrap();
        writeln!(src, "tick:").unwrap();
        writeln!(src, "    %xin = prb i16$ %x").unwrap();
        writeln!(src, "    %delay = const time 0s").unwrap();
        for tap in 0..taps {
            writeln!(src, "    %v{} = ld i16* %t{}p", tap, tap).unwrap();
        }
        writeln!(src, "    st i16* %t0p, %xin").unwrap();
        for tap in 1..taps {
            writeln!(src, "    st i16* %t{}p, %v{}", tap, tap - 1).unwrap();
        }
        writeln!(src, "    %acc0 = add i16 %xin, %v0").unwrap();
        let mut acc = 0;
        for (tap, &weight) in weights.iter().enumerate() {
            // The first tap already seeded the chain; later taps extend
            // it, and heavy taps are added a second time.
            let reps = if tap == 0 { weight - 1 } else { weight };
            for _ in 0..reps {
                writeln!(src, "    %acc{} = add i16 %acc{}, %v{}", acc + 1, acc, tap).unwrap();
                acc += 1;
            }
        }
        writeln!(src, "    drv i16$ %y, %acc{} after %delay", acc).unwrap();
        writeln!(src, "    br %main").unwrap();
        writeln!(src, "}}").unwrap();
        writeln!(src).unwrap();
        // The per-lane stimulus: a free-running clock plus a counter
        // stepping by a seeded increment.
        writeln!(src, "proc @fir_stim_{} () -> (i1$ %clk, i16$ %x) {{", lane).unwrap();
        writeln!(src, "entry:").unwrap();
        writeln!(src, "    %one = const i1 1").unwrap();
        writeln!(src, "    %zero = const i1 0").unwrap();
        writeln!(src, "    %d1 = const time 1ns").unwrap();
        writeln!(src, "    %d2 = const time 2ns").unwrap();
        writeln!(src, "    %zero16 = const i16 0").unwrap();
        writeln!(src, "    %inc = const i16 {}", rng.pick(251)).unwrap();
        writeln!(src, "    %i = var i16 %zero16").unwrap();
        writeln!(src, "    br %loop").unwrap();
        writeln!(src, "loop:").unwrap();
        writeln!(src, "    %ip = ld i16* %i").unwrap();
        writeln!(src, "    %next = add i16 %ip, %inc").unwrap();
        writeln!(src, "    st i16* %i, %next").unwrap();
        writeln!(src, "    drv i16$ %x, %next after %d1").unwrap();
        writeln!(src, "    drv i1$ %clk, %one after %d1").unwrap();
        writeln!(src, "    drv i1$ %clk, %zero after %d2").unwrap();
        writeln!(src, "    wait %loop for %d2").unwrap();
        writeln!(src, "}}").unwrap();
        writeln!(src).unwrap();
    }
    writeln!(src, "entity @fir_bank_tb () -> () {{").unwrap();
    writeln!(src, "    %z1 = const i1 0").unwrap();
    writeln!(src, "    %z16 = const i16 0").unwrap();
    for lane in 0..lanes {
        writeln!(src, "    %clk{} = sig i1 %z1", lane).unwrap();
        writeln!(src, "    %x{} = sig i16 %z16", lane).unwrap();
        writeln!(src, "    %y{} = sig i16 %z16", lane).unwrap();
    }
    for lane in 0..lanes {
        writeln!(src, "    inst @fir_lane_{} (%clk{}, %x{}) -> (%y{})", lane, lane, lane, lane)
            .unwrap();
        writeln!(src, "    inst @fir_stim_{} () -> (%clk{}, %x{})", lane, lane, lane).unwrap();
    }
    writeln!(src, "}}").unwrap();
    GeneratedDesign {
        name: format!("fir-bank-{}x{}-s{}", lanes, taps, seed),
        llhd_source: src,
        top: "fir_bank_tb".to_string(),
        clock_period_ns: 2,
        probe_signal: "y0".to_string(),
        expected_islands: lanes + 1,
        expected_instances: 2 * lanes + 1,
    }
}

/// A mesh of `rows` independent router pipelines, `cols` tiles wide, with
/// seeded per-row routing constants and injection rates.
///
/// Tiles within a row share the row clock and hand data down a chain of
/// link signals, so a whole row is one island; rows share nothing. The
/// partition is exactly `rows` islands (plus the top shell), each holding
/// `cols + 1` instances.
pub fn noc_mesh(rows: usize, cols: usize, seed: u64) -> GeneratedDesign {
    assert!(rows >= 1 && cols >= 1, "noc_mesh needs rows >= 1, cols >= 1");
    let mut rng = Rng::new(seed ^ (rows as u64) << 32 ^ cols as u64);
    let mut src = String::new();
    for row in 0..rows {
        // One tile unit per row (instantiated `cols` times): a two-stage
        // pipeline that adds the row's seeded routing constant. Vars are
        // per-instance state, so the tiles advance independently.
        writeln!(src, "proc @noc_tile_{} (i1$ %clk, i16$ %din) -> (i16$ %dout) {{", row).unwrap();
        writeln!(src, "setup:").unwrap();
        writeln!(src, "    %zero16 = const i16 0").unwrap();
        writeln!(src, "    %s0p = var i16 %zero16").unwrap();
        writeln!(src, "    %s1p = var i16 %zero16").unwrap();
        writeln!(src, "    br %main").unwrap();
        writeln!(src, "main:").unwrap();
        writeln!(src, "    %clk0 = prb i1$ %clk").unwrap();
        writeln!(src, "    wait %sample, %clk").unwrap();
        writeln!(src, "sample:").unwrap();
        writeln!(src, "    %clk1 = prb i1$ %clk").unwrap();
        writeln!(src, "    %chg = neq i1 %clk0, %clk1").unwrap();
        writeln!(src, "    %posedge = and i1 %chg, %clk1").unwrap();
        writeln!(src, "    br %posedge, %main, %tick").unwrap();
        writeln!(src, "tick:").unwrap();
        writeln!(src, "    %d = prb i16$ %din").unwrap();
        writeln!(src, "    %delay = const time 0s").unwrap();
        writeln!(src, "    %c = const i16 {}", rng.pick(251)).unwrap();
        writeln!(src, "    %s0 = ld i16* %s0p").unwrap();
        writeln!(src, "    %s1 = ld i16* %s1p").unwrap();
        writeln!(src, "    %n0 = add i16 %d, %c").unwrap();
        writeln!(src, "    st i16* %s0p, %n0").unwrap();
        writeln!(src, "    st i16* %s1p, %s0").unwrap();
        writeln!(src, "    drv i16$ %dout, %s1 after %delay").unwrap();
        writeln!(src, "    br %main").unwrap();
        writeln!(src, "}}").unwrap();
        writeln!(src).unwrap();
        // The row's injector: a clock plus a counter feeding the head of
        // the chain.
        writeln!(src, "proc @noc_stim_{} () -> (i1$ %clk, i16$ %inj) {{", row).unwrap();
        writeln!(src, "entry:").unwrap();
        writeln!(src, "    %one = const i1 1").unwrap();
        writeln!(src, "    %zero = const i1 0").unwrap();
        writeln!(src, "    %d1 = const time 1ns").unwrap();
        writeln!(src, "    %d2 = const time 2ns").unwrap();
        writeln!(src, "    %zero16 = const i16 0").unwrap();
        writeln!(src, "    %inc = const i16 {}", rng.pick(251)).unwrap();
        writeln!(src, "    %i = var i16 %zero16").unwrap();
        writeln!(src, "    br %loop").unwrap();
        writeln!(src, "loop:").unwrap();
        writeln!(src, "    %ip = ld i16* %i").unwrap();
        writeln!(src, "    %next = add i16 %ip, %inc").unwrap();
        writeln!(src, "    st i16* %i, %next").unwrap();
        writeln!(src, "    drv i16$ %inj, %next after %d1").unwrap();
        writeln!(src, "    drv i1$ %clk, %one after %d1").unwrap();
        writeln!(src, "    drv i1$ %clk, %zero after %d2").unwrap();
        writeln!(src, "    wait %loop for %d2").unwrap();
        writeln!(src, "}}").unwrap();
        writeln!(src).unwrap();
    }
    writeln!(src, "entity @noc_mesh_tb () -> () {{").unwrap();
    writeln!(src, "    %z1 = const i1 0").unwrap();
    writeln!(src, "    %z16 = const i16 0").unwrap();
    for row in 0..rows {
        writeln!(src, "    %clk{} = sig i1 %z1", row).unwrap();
        for link in 0..=cols {
            writeln!(src, "    %l{}_{} = sig i16 %z16", row, link).unwrap();
        }
    }
    for row in 0..rows {
        writeln!(src, "    inst @noc_stim_{} () -> (%clk{}, %l{}_0)", row, row, row).unwrap();
        for col in 0..cols {
            writeln!(
                src,
                "    inst @noc_tile_{} (%clk{}, %l{}_{}) -> (%l{}_{})",
                row,
                row,
                row,
                col,
                row,
                col + 1
            )
            .unwrap();
        }
    }
    writeln!(src, "}}").unwrap();
    GeneratedDesign {
        name: format!("noc-mesh-{}x{}-s{}", rows, cols, seed),
        llhd_source: src,
        top: "noc_mesh_tb".to_string(),
        clock_period_ns: 2,
        probe_signal: format!("l0_{}", cols),
        expected_islands: rows + 1,
        expected_instances: rows * (cols + 1) + 1,
    }
}

/// The scaled corpus the structure tests run over: both families at a
/// small, a medium, and a large scale (roughly 10×, 30×, and 100× the
/// instance count of the hand-written Table 2 designs). Fixed seeds keep baselines meaningful.
pub fn scaled_corpus() -> Vec<GeneratedDesign> {
    vec![
        fir_bank(8, 16, 7),
        fir_bank(16, 32, 7),
        fir_bank(32, 64, 7),
        noc_mesh(4, 4, 11),
        noc_mesh(8, 8, 11),
        noc_mesh(16, 8, 11),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use llhd_sim::{elaborate, IslandPlan};

    #[test]
    fn generated_designs_build_and_verify() {
        for design in scaled_corpus() {
            let module = design
                .build()
                .unwrap_or_else(|e| panic!("{} failed to build: {}", design.name, e));
            llhd::verifier::verify_module(&module)
                .unwrap_or_else(|e| panic!("{} failed to verify: {:?}", design.name, e));
        }
    }

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        let a = fir_bank(4, 8, 42);
        let b = fir_bank(4, 8, 42);
        assert_eq!(a.llhd_source, b.llhd_source);
        let c = fir_bank(4, 8, 43);
        assert_ne!(a.llhd_source, c.llhd_source, "seed must vary the source");
        let m = noc_mesh(3, 2, 5);
        let n = noc_mesh(3, 2, 5);
        assert_eq!(m.llhd_source, n.llhd_source);
    }

    /// The whole point of the generated corpus: the island partition is
    /// *known*, so a benchmark can assert it measures what it claims to.
    #[test]
    fn island_structure_matches_the_advertised_counts() {
        for design in [
            fir_bank(1, 4, 1),
            fir_bank(4, 8, 9),
            fir_bank(16, 16, 9),
            noc_mesh(1, 3, 2),
            noc_mesh(4, 4, 2),
            noc_mesh(8, 4, 2),
        ] {
            let module = design.build().unwrap();
            let elaborated = elaborate(&module, &design.top).unwrap();
            assert_eq!(
                elaborated.num_instances(),
                design.expected_instances,
                "{}: instance count",
                design.name
            );
            let plan = IslandPlan::build(&module, &elaborated);
            assert_eq!(
                plan.num_islands(),
                design.expected_islands,
                "{}: island count",
                design.name
            );
            // Every island except (possibly) the top shell carries real
            // work — at scale the shell's sig/inst ops can cross the
            // floor too, hence `>=` rather than equality.
            let substantial = plan.islands().iter().filter(|i| i.ops >= 16).count();
            assert!(
                substantial >= design.expected_islands - 1,
                "{}: only {} of {} islands are substantial",
                design.name,
                substantial,
                design.expected_islands - 1
            );
        }
    }

    /// The degenerate scales — one lane, one tap, a 1x1 mesh, a single
    /// row or column — must build, verify, elaborate, and report the
    /// same advertised instance and island counts as the formulas
    /// promise. These edges have no redundancy to hide an off-by-one:
    /// a 1x1 mesh is one router plus one stimulus plus the shell, and a
    /// one-lane bank is one lane, one stimulus, one shell.
    #[test]
    fn degenerate_scales_report_correct_structure() {
        for design in [
            fir_bank(1, 1, 1),
            fir_bank(1, 4, 1),
            fir_bank(2, 1, 3),
            noc_mesh(1, 1, 1),
            noc_mesh(1, 2, 2),
            noc_mesh(2, 1, 2),
        ] {
            let module = design
                .build()
                .unwrap_or_else(|e| panic!("{}: failed to build: {}", design.name, e));
            llhd::verifier::verify_module(&module)
                .unwrap_or_else(|e| panic!("{}: failed to verify: {:?}", design.name, e));
            let elaborated = elaborate(&module, &design.top)
                .unwrap_or_else(|e| panic!("{}: failed to elaborate: {:?}", design.name, e));
            assert_eq!(
                elaborated.num_instances(),
                design.expected_instances,
                "{}: instance count",
                design.name
            );
            let plan = IslandPlan::build(&module, &elaborated);
            assert_eq!(
                plan.num_islands(),
                design.expected_islands,
                "{}: island count",
                design.name
            );
            assert!(
                elaborated.signal_by_name(&design.probe_signal).is_some(),
                "{}: probe signal {} does not resolve",
                design.name,
                design.probe_signal
            );
        }
    }

    /// The degenerate scales also *run* — on both engines — and agree
    /// byte for byte.
    #[test]
    fn degenerate_scales_agree_across_engines_and_threads() {
        use llhd_sim::api::EngineKind;

        for design in [fir_bank(1, 1, 1), noc_mesh(1, 1, 1)] {
            let module = design.build().unwrap();
            let mut reference = None;
            for engine in [EngineKind::Interpret, EngineKind::Compile] {
                let result = llhd_sim::api::SimSession::builder(&module, &design.top)
                    .engine(engine)
                    .until_nanos(design.sim_time_ns(24))
                    .build()
                    .unwrap()
                    .run()
                    .unwrap();
                assert!(
                    result.trace.changes_of(&design.probe_signal).count() > 0,
                    "{} ({:?}): probe {} never changed",
                    design.name,
                    engine,
                    design.probe_signal
                );
                let events = result.trace.events().to_vec();
                match &reference {
                    None => reference = Some(events),
                    Some(expected) => assert_eq!(
                        expected,
                        &events,
                        "{} ({:?}): trace diverges",
                        design.name,
                        engine
                    ),
                }
            }
        }
    }
}
