//! Seeded random-design generation.
//!
//! A design is generated in two stages: seed → [`DesignPlan`] (a small
//! structured description) → LLHD assembly. The plan is the unit of
//! shrinking — dropping a cluster or a unit from the plan and re-emitting
//! always yields a *valid* module, which text-level mutation cannot
//! guarantee.
//!
//! Every plan emits a design that is valid and elaboratable **by
//! construction**:
//!
//! * signals are declared before use and every name is globally unique,
//! * process CFGs are well-formed (every block terminated, entry first),
//! * combinational chains are acyclic (unit *j* reads link *j*, drives
//!   link *j+1*), so zero-delay re-evaluation always settles,
//! * port and value types line up everywhere.
//!
//! The randomness is spent where the engines differ most, deliberately
//! biased toward the machinery recent PRs added:
//!
//! * **fusable op pairs** for the superinstruction lowering — posedge
//!   detection compiles to the compare+branch shape, combinational tails
//!   to array+mux, and every unit output to compute+drive;
//! * **multi-island topologies** — clusters share nothing, so a plan with
//!   *k* clusters partitions into *k* islands (plus the top shell), the
//!   shape the island-parallel instant loop keys on;
//! * **same-timestamp drive races** — each cluster's `race` signal is
//!   driven by the stimulus process *and* 0–2 racer processes in the same
//!   physical instant, exercising the scheduler's documented
//!   last-writer-wins resolution;
//! * **nested instantiation** — a cluster's datapath is optionally wrapped
//!   in an inner entity, so hierarchy flattening gets fuzzed too;
//! * **counted testbench loops** — a cluster's stimulus is either a
//!   free-running wait loop or the shape the Moore frontend emits for
//!   `repeat (n)`: a `var` counter, `ld`, `ult` against the count, a
//!   conditional branch, the `wait … for` inside the body, a back edge,
//!   optionally nested, and a `halt` once the count runs out.

use crate::rng::FuzzRng;
use llhd::ir::Module;
use std::fmt::Write as _;

/// The binary operators the generator composes chains from. All of them
/// are supported by both engines and proven in the curated corpus.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BinOp {
    Add,
    Sub,
    And,
    Or,
    Xor,
}

impl BinOp {
    fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
        }
    }

    const ALL: [BinOp; 5] = [BinOp::Add, BinOp::Sub, BinOp::And, BinOp::Or, BinOp::Xor];
}

/// One datapath unit inside a cluster. Unit *j* reads link *j* and drives
/// link *j+1*.
#[derive(Clone, Debug)]
pub enum UnitPlan {
    /// A combinational entity: probe the input link, fold a chain of
    /// binary ops over seeded constants (optionally mixing in the race
    /// signal), optionally select the result through an array+mux tail
    /// (the blaze `Sel` fusion shape), and drive the output with zero
    /// delay (the compute+drive fusion shape).
    Comb {
        ops: Vec<(BinOp, u64)>,
        mix_race: bool,
        mux_tail: bool,
    },
    /// A register entity: `reg ... rise clk` — the storage primitive.
    Reg,
    /// A behavioural pipeline process: wait on the clock, detect the
    /// rising edge (the compare+branch fusion shape), shift a `taps`-deep
    /// variable delay line, and drive a weighted sum.
    Pipe { taps: usize, weights: Vec<u64> },
}

/// How a cluster's stimulus process loops.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StimPlan {
    /// One unconditional `wait` loop, free-running.
    Free,
    /// A counted loop of `outer` iterations, each either one clock cycle
    /// or an inner counted loop of `inner` cycles, then `halt`. The counts
    /// straddle the run horizon: some stimuli halt mid-run, some are cut.
    Counted { outer: u64, inner: Option<u64> },
}

/// One independent cluster: a stimulus process, optional racer processes
/// on the shared `race` signal, and a chain of datapath units. Clusters
/// share nothing, so each is one sensitivity island.
#[derive(Clone, Debug)]
pub struct ClusterPlan {
    /// Stable identity used in names; survives shrinking (removing
    /// cluster 1 must not rename cluster 2's signals, or a shrunk
    /// schedule would stop resolving).
    pub id: usize,
    /// Data width of the cluster's links and race signal (8/16/32).
    pub width: usize,
    /// Half-period of the cluster's clock in nanoseconds (1..=3).
    pub clock_half_ns: u64,
    /// The stimulus counter increment.
    pub stim_inc: u64,
    /// The stimulus process's loop shape.
    pub stim: StimPlan,
    /// Counter decrements of the extra same-timestamp racers (0..=2).
    pub racers: Vec<u64>,
    /// Wrap the datapath units in an inner entity (nested instantiation).
    pub nested: bool,
    /// The datapath chain, in link order.
    pub units: Vec<UnitPlan>,
}

/// A structured, shrinkable description of one generated design.
#[derive(Clone, Debug)]
pub struct DesignPlan {
    /// The seed the plan was generated from (provenance only; emission
    /// depends solely on the plan's contents).
    pub seed: u64,
    pub clusters: Vec<ClusterPlan>,
}

/// An emitted design: source plus the metadata the stimulus driver and
/// the differential runner need.
#[derive(Clone, Debug)]
pub struct FuzzDesign {
    /// `fuzz-s<seed in hex>` (provenance; shrunk designs keep the name).
    pub name: String,
    /// The LLHD assembly.
    pub source: String,
    /// The top-level entity: always `fuzz_top`.
    pub top: String,
    /// Every generated signal as `(unique name, bit width)` — the poke
    /// and peek targets. Names are unique by construction, so suffix
    /// lookup through `ElaboratedDesign::signal_by_name` is unambiguous.
    pub signals: Vec<(String, usize)>,
    /// The simulation end time in nanoseconds, sized so every cluster
    /// sees a few dozen clock edges.
    pub until_ns: u128,
    /// Lower bound on the island count (clusters + top shell) for
    /// structural sanity checks.
    pub min_islands: usize,
}

impl DesignPlan {
    /// Generate a plan from a seed: 1–4 clusters of 1–3 units each, with
    /// seeded widths, clocks, racers, nesting, and unit internals.
    pub fn generate(seed: u64) -> DesignPlan {
        let mut rng = FuzzRng::new(seed);
        let clusters = (0..rng.range_usize(1, 4))
            .map(|id| ClusterPlan::generate(id, &mut rng))
            .collect();
        DesignPlan { seed, clusters }
    }

    /// Emit the plan as LLHD assembly plus driver metadata.
    pub fn emit(&self) -> FuzzDesign {
        emit_design(self)
    }

    /// Build the emitted module (a failure is a generator bug, not a
    /// fuzz finding).
    ///
    /// # Errors
    ///
    /// Returns the assembler's message when the emitted source is
    /// rejected.
    pub fn build(&self) -> Result<(FuzzDesign, Module), String> {
        let design = self.emit();
        let module = llhd::assembly::parse_module(&design.source).map_err(|e| e.to_string())?;
        Ok((design, module))
    }
}

impl ClusterPlan {
    fn generate(id: usize, rng: &mut FuzzRng) -> ClusterPlan {
        let width = *rng.pick(&[8usize, 16, 32]);
        let units = (0..rng.range_usize(1, 3))
            .map(|_| UnitPlan::generate(rng))
            .collect();
        ClusterPlan {
            id,
            width,
            clock_half_ns: rng.range(1, 3),
            stim_inc: rng.range(1, 250),
            stim: StimPlan::generate(rng),
            racers: (0..rng.range_usize(0, 2)).map(|_| rng.range(1, 250)).collect(),
            nested: rng.chance(40),
            units,
        }
    }
}

impl StimPlan {
    fn generate(rng: &mut FuzzRng) -> StimPlan {
        if rng.chance(50) {
            return StimPlan::Free;
        }
        StimPlan::Counted {
            outer: rng.range(0, 8),
            inner: rng.chance(40).then(|| rng.range(0, 6)),
        }
    }
}

impl UnitPlan {
    fn generate(rng: &mut FuzzRng) -> UnitPlan {
        match rng.range(0, 9) {
            // Comb is the most common unit: it is where op-chain shapes
            // (and therefore superop fusion candidates) vary the most.
            0..=4 => UnitPlan::Comb {
                ops: (0..rng.range_usize(1, 5))
                    .map(|_| (*rng.pick(&BinOp::ALL), rng.range(1, 250)))
                    .collect(),
                mix_race: rng.chance(50),
                mux_tail: rng.chance(50),
            },
            5..=6 => UnitPlan::Reg,
            _ => {
                let taps = rng.range_usize(1, 4);
                UnitPlan::Pipe {
                    taps,
                    weights: (0..taps).map(|_| rng.range(1, 2)).collect(),
                }
            }
        }
    }
}

/// The fixed top-entity name of every generated design.
pub const TOP: &str = "fuzz_top";

fn emit_design(plan: &DesignPlan) -> FuzzDesign {
    let mut src = String::new();
    let mut signals = Vec::new();
    for cluster in &plan.clusters {
        emit_cluster_units(&mut src, cluster);
    }
    emit_top(&mut src, plan, &mut signals);
    let max_half = plan
        .clusters
        .iter()
        .map(|c| c.clock_half_ns)
        .max()
        .unwrap_or(1);
    FuzzDesign {
        name: format!("fuzz-s{:#018x}", plan.seed),
        source: src,
        top: TOP.to_string(),
        signals,
        // ~24 clock cycles of the slowest cluster, plus settle margin.
        until_ns: (max_half as u128) * 2 * 24 + 10,
        min_islands: plan.clusters.len() + 1,
    }
}

/// Emit the per-cluster units: stimulus, racers, datapath units, and the
/// optional wrapper entity.
fn emit_cluster_units(src: &mut String, c: &ClusterPlan) {
    let (id, w) = (c.id, c.width);
    // Stimulus: a clock (free-running or counted, per `c.stim`), a
    // counter on link 0, and the first drive of the race signal — all
    // landing in the same instants the racers target.
    writeln!(src, "proc @c{id}_stim () -> (i1$ %clk, i{w}$ %l0, i{w}$ %race) {{").unwrap();
    writeln!(src, "entry:").unwrap();
    writeln!(src, "    %one = const i1 1").unwrap();
    writeln!(src, "    %zero = const i1 0").unwrap();
    writeln!(src, "    %d1 = const time {}ns", c.clock_half_ns).unwrap();
    writeln!(src, "    %d2 = const time {}ns", 2 * c.clock_half_ns).unwrap();
    writeln!(src, "    %zw = const i{w} 0").unwrap();
    writeln!(src, "    %inc = const i{w} {}", c.stim_inc).unwrap();
    writeln!(src, "    %i = var i{w} %zw").unwrap();
    // The clock cycle every loop shape wraps; `back` is where the wait
    // resumes.
    let cycle = |src: &mut String, back: &str| {
        writeln!(src, "    %ip = ld i{w}* %i").unwrap();
        writeln!(src, "    %next = add i{w} %ip, %inc").unwrap();
        writeln!(src, "    st i{w}* %i, %next").unwrap();
        writeln!(src, "    drv i{w}$ %l0, %next after %d1").unwrap();
        writeln!(src, "    drv i{w}$ %race, %next after %d1").unwrap();
        writeln!(src, "    drv i1$ %clk, %one after %d1").unwrap();
        writeln!(src, "    drv i1$ %clk, %zero after %d2").unwrap();
        writeln!(src, "    wait %{back} for %d2").unwrap();
    };
    // A loop head as the Moore frontend emits it: the counter's `var` in
    // the preheader, then `ld`, `ult` against the count, exit-or-body, and
    // the increment stored first thing in the body.
    let head = |src: &mut String, p: &str, count: u64, exit: &str| {
        writeln!(src, "    %{p}c = var i64 %c0").unwrap();
        writeln!(src, "    br %{p}head").unwrap();
        writeln!(src, "{p}head:").unwrap();
        writeln!(src, "    %{p}v = ld i64* %{p}c").unwrap();
        writeln!(src, "    %{p}n = const i64 {count}").unwrap();
        writeln!(src, "    %{p}more = ult i64 %{p}v, %{p}n").unwrap();
        writeln!(src, "    br %{p}more, %{exit}, %{p}body").unwrap();
        writeln!(src, "{p}body:").unwrap();
        writeln!(src, "    %{p}next = add i64 %{p}v, %c1").unwrap();
        writeln!(src, "    st i64* %{p}c, %{p}next").unwrap();
    };
    match c.stim {
        StimPlan::Free => {
            writeln!(src, "    br %loop").unwrap();
            writeln!(src, "loop:").unwrap();
            cycle(src, "loop");
        }
        StimPlan::Counted { outer, inner } => {
            writeln!(src, "    %c0 = const i64 0").unwrap();
            writeln!(src, "    %c1 = const i64 1").unwrap();
            head(src, "o", outer, "done");
            if let Some(inner) = inner {
                head(src, "i", inner, "oback");
                cycle(src, "iback");
                writeln!(src, "iback:").unwrap();
                writeln!(src, "    br %ihead").unwrap();
            } else {
                cycle(src, "oback");
            }
            writeln!(src, "oback:").unwrap();
            writeln!(src, "    br %ohead").unwrap();
            writeln!(src, "done:").unwrap();
            writeln!(src, "    halt").unwrap();
        }
    }
    writeln!(src, "}}").unwrap();
    writeln!(src).unwrap();
    // Racers: same cadence, same delay — their drives land in the same
    // physical instant as the stimulus' race drive, so resolution is
    // pure scheduler last-writer-wins.
    for (r, dec) in c.racers.iter().enumerate() {
        writeln!(src, "proc @c{id}_racer{r} () -> (i{w}$ %race) {{").unwrap();
        writeln!(src, "entry:").unwrap();
        writeln!(src, "    %d1 = const time {}ns", c.clock_half_ns).unwrap();
        writeln!(src, "    %d2 = const time {}ns", 2 * c.clock_half_ns).unwrap();
        writeln!(src, "    %zw = const i{w} 0").unwrap();
        writeln!(src, "    %dec = const i{w} {dec}").unwrap();
        writeln!(src, "    %i = var i{w} %zw").unwrap();
        writeln!(src, "    br %loop").unwrap();
        writeln!(src, "loop:").unwrap();
        writeln!(src, "    %ip = ld i{w}* %i").unwrap();
        writeln!(src, "    %next = sub i{w} %ip, %dec").unwrap();
        writeln!(src, "    st i{w}* %i, %next").unwrap();
        writeln!(src, "    drv i{w}$ %race, %next after %d1").unwrap();
        writeln!(src, "    wait %loop for %d2").unwrap();
        writeln!(src, "}}").unwrap();
        writeln!(src).unwrap();
    }
    for (j, unit) in c.units.iter().enumerate() {
        emit_unit(src, c, j, unit);
    }
    if c.nested {
        // The wrapper entity owns the intermediate link signals and
        // instantiates the datapath chain; the top entity only sees the
        // cluster's boundary signals.
        let last = c.units.len();
        writeln!(
            src,
            "entity @c{id}_wrap (i1$ %clk, i{w}$ %c{id}_l0, i{w}$ %race) -> (i{w}$ %c{id}_l{last}) {{"
        )
        .unwrap();
        if c.units.len() > 1 {
            writeln!(src, "    %zw = const i{w} 0").unwrap();
            for j in 1..c.units.len() {
                writeln!(src, "    %c{id}_l{j} = sig i{w} %zw").unwrap();
            }
        }
        for (j, unit) in c.units.iter().enumerate() {
            emit_unit_inst(src, c, j, unit, "%clk", "%race", &format!("c{id}_"));
        }
        writeln!(src, "}}").unwrap();
        writeln!(src).unwrap();
    }
}

/// Emit one datapath unit definition.
fn emit_unit(src: &mut String, c: &ClusterPlan, j: usize, unit: &UnitPlan) {
    let (id, w) = (c.id, c.width);
    match unit {
        UnitPlan::Comb {
            ops,
            mix_race,
            mux_tail,
        } => {
            if *mix_race {
                writeln!(src, "entity @c{id}_u{j} (i{w}$ %a, i{w}$ %race) -> (i{w}$ %q) {{")
                    .unwrap();
            } else {
                writeln!(src, "entity @c{id}_u{j} (i{w}$ %a) -> (i{w}$ %q) {{").unwrap();
            }
            writeln!(src, "    %ap = prb i{w}$ %a").unwrap();
            if *mix_race {
                writeln!(src, "    %rp = prb i{w}$ %race").unwrap();
            }
            writeln!(src, "    %delay = const time 0s").unwrap();
            let mut cur = "%ap".to_string();
            for (n, (op, konst)) in ops.iter().enumerate() {
                writeln!(src, "    %k{n} = const i{w} {konst}").unwrap();
                writeln!(src, "    %v{n} = {} i{w} {cur}, %k{n}", op.mnemonic()).unwrap();
                cur = format!("%v{n}");
            }
            if *mix_race {
                writeln!(src, "    %vr = xor i{w} {cur}, %rp").unwrap();
                cur = "%vr".to_string();
            }
            if *mux_tail {
                // The array+mux pair the blaze `Sel` fusion targets,
                // selected by a comparison (an i1 the mux indexes with).
                writeln!(src, "    %cmp = ult i{w} {cur}, %ap").unwrap();
                writeln!(src, "    %pair = array [{cur}, %ap]").unwrap();
                writeln!(src, "    %sel = mux [2 x i{w}] %pair, %cmp").unwrap();
                cur = "%sel".to_string();
            }
            writeln!(src, "    drv i{w}$ %q, {cur} after %delay").unwrap();
            writeln!(src, "}}").unwrap();
        }
        UnitPlan::Reg => {
            writeln!(src, "entity @c{id}_u{j} (i1$ %clk, i{w}$ %a) -> (i{w}$ %q) {{").unwrap();
            writeln!(src, "    %clkp = prb i1$ %clk").unwrap();
            writeln!(src, "    %ap = prb i{w}$ %a").unwrap();
            writeln!(src, "    reg i{w}$ %q, %ap rise %clkp").unwrap();
            writeln!(src, "}}").unwrap();
        }
        UnitPlan::Pipe { taps, weights } => {
            writeln!(src, "proc @c{id}_u{j} (i1$ %clk, i{w}$ %a) -> (i{w}$ %q) {{").unwrap();
            writeln!(src, "setup:").unwrap();
            writeln!(src, "    %zw = const i{w} 0").unwrap();
            for t in 0..*taps {
                writeln!(src, "    %t{t}p = var i{w} %zw").unwrap();
            }
            writeln!(src, "    br %main").unwrap();
            writeln!(src, "main:").unwrap();
            writeln!(src, "    %clk0 = prb i1$ %clk").unwrap();
            writeln!(src, "    wait %sample, %clk").unwrap();
            writeln!(src, "sample:").unwrap();
            // Posedge detection: the neq feeding a conditional branch is
            // the compare+branch superop fusion shape.
            writeln!(src, "    %clk1 = prb i1$ %clk").unwrap();
            writeln!(src, "    %chg = neq i1 %clk0, %clk1").unwrap();
            writeln!(src, "    %pos = and i1 %chg, %clk1").unwrap();
            writeln!(src, "    br %pos, %main, %tick").unwrap();
            writeln!(src, "tick:").unwrap();
            writeln!(src, "    %ap = prb i{w}$ %a").unwrap();
            writeln!(src, "    %delay = const time 0s").unwrap();
            for t in 0..*taps {
                writeln!(src, "    %v{t} = ld i{w}* %t{t}p").unwrap();
            }
            writeln!(src, "    st i{w}* %t0p, %ap").unwrap();
            for t in 1..*taps {
                writeln!(src, "    st i{w}* %t{t}p, %v{}", t - 1).unwrap();
            }
            writeln!(src, "    %acc0 = add i{w} %ap, %v0").unwrap();
            let mut acc = 0usize;
            for (t, &weight) in weights.iter().enumerate() {
                let reps = if t == 0 { weight.saturating_sub(1) } else { weight };
                for _ in 0..reps {
                    writeln!(src, "    %acc{} = add i{w} %acc{acc}, %v{t}", acc + 1).unwrap();
                    acc += 1;
                }
            }
            writeln!(src, "    drv i{w}$ %q, %acc{acc} after %delay").unwrap();
            writeln!(src, "    br %main").unwrap();
            writeln!(src, "}}").unwrap();
        }
    }
    writeln!(src).unwrap();
}

/// Emit the `inst` line connecting unit `j` between link `j` and link
/// `j+1`. `prefix` is the link-name prefix (`c<id>_`), shared between the
/// flat and the nested emission.
fn emit_unit_inst(
    src: &mut String,
    c: &ClusterPlan,
    j: usize,
    unit: &UnitPlan,
    clk: &str,
    race: &str,
    prefix: &str,
) {
    let id = c.id;
    let input = format!("%{prefix}l{j}");
    let output = format!("%{prefix}l{}", j + 1);
    match unit {
        UnitPlan::Comb { mix_race, .. } => {
            if *mix_race {
                writeln!(src, "    inst @c{id}_u{j} ({input}, {race}) -> ({output})").unwrap();
            } else {
                writeln!(src, "    inst @c{id}_u{j} ({input}) -> ({output})").unwrap();
            }
        }
        UnitPlan::Reg | UnitPlan::Pipe { .. } => {
            writeln!(src, "    inst @c{id}_u{j} ({clk}, {input}) -> ({output})").unwrap();
        }
    }
}

fn emit_top(src: &mut String, plan: &DesignPlan, signals: &mut Vec<(String, usize)>) {
    writeln!(src, "entity @{TOP} () -> () {{").unwrap();
    writeln!(src, "    %z1 = const i1 0").unwrap();
    let mut widths: Vec<usize> = plan.clusters.iter().map(|c| c.width).collect();
    widths.sort_unstable();
    widths.dedup();
    for w in &widths {
        writeln!(src, "    %z{w} = const i{w} 0").unwrap();
    }
    for c in &plan.clusters {
        let (id, w) = (c.id, c.width);
        writeln!(src, "    %c{id}_clk = sig i1 %z1").unwrap();
        signals.push((format!("c{id}_clk"), 1));
        writeln!(src, "    %c{id}_race = sig i{w} %z{w}").unwrap();
        signals.push((format!("c{id}_race"), w));
        // Nested clusters only surface the boundary links at the top;
        // the wrapper owns the intermediate ones (still poke/peekable —
        // elaboration flattens them, and their names stay unique).
        let top_links: Vec<usize> = if c.nested {
            vec![0, c.units.len()]
        } else {
            (0..=c.units.len()).collect()
        };
        for j in top_links {
            writeln!(src, "    %c{id}_l{j} = sig i{w} %z{w}").unwrap();
        }
        for j in 0..=c.units.len() {
            signals.push((format!("c{id}_l{j}"), w));
        }
    }
    for c in &plan.clusters {
        let id = c.id;
        writeln!(src, "    inst @c{id}_stim () -> (%c{id}_clk, %c{id}_l0, %c{id}_race)").unwrap();
        for r in 0..c.racers.len() {
            writeln!(src, "    inst @c{id}_racer{r} () -> (%c{id}_race)").unwrap();
        }
        if c.nested {
            let last = c.units.len();
            writeln!(
                src,
                "    inst @c{id}_wrap (%c{id}_clk, %c{id}_l0, %c{id}_race) -> (%c{id}_l{last})"
            )
            .unwrap();
        } else {
            for (j, unit) in c.units.iter().enumerate() {
                emit_unit_inst(
                    src,
                    c,
                    j,
                    unit,
                    &format!("%c{id}_clk"),
                    &format!("%c{id}_race"),
                    &format!("c{id}_"),
                );
            }
        }
    }
    writeln!(src, "}}").unwrap();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_and_seed_sensitive() {
        let a = DesignPlan::generate(11).emit();
        let b = DesignPlan::generate(11).emit();
        assert_eq!(a.source, b.source);
        let c = DesignPlan::generate(12).emit();
        assert_ne!(a.source, c.source);
    }

    /// The generator's core contract: every seed emits a module that
    /// parses, verifies, and elaborates. 256 seeds is enough to cover
    /// every unit kind, nesting, racer count, and width combination many
    /// times over.
    #[test]
    fn every_seed_builds_verifies_and_elaborates() {
        // Stimulus shapes seen: free-running, counted, nested counted.
        let mut shapes = [0usize; 3];
        for seed in 0..256u64 {
            let plan = DesignPlan::generate(seed);
            for c in &plan.clusters {
                shapes[match c.stim {
                    StimPlan::Free => 0,
                    StimPlan::Counted { inner: None, .. } => 1,
                    StimPlan::Counted { inner: Some(_), .. } => 2,
                }] += 1;
            }
            let (design, module) = plan
                .build()
                .unwrap_or_else(|e| panic!("seed {seed}: emitted source rejected: {e}"));
            llhd::verifier::verify_module(&module)
                .unwrap_or_else(|e| panic!("seed {seed}: verifier rejected module: {e:?}"));
            let elaborated = llhd_sim::elaborate(&module, &design.top)
                .unwrap_or_else(|e| panic!("seed {seed}: elaboration failed: {e:?}"));
            // Every advertised poke/peek target must resolve.
            for (name, width) in &design.signals {
                let id = elaborated
                    .signal_by_name(name)
                    .unwrap_or_else(|| panic!("seed {seed}: signal {name} does not resolve"));
                let _ = (id, width);
            }
            // Clusters share nothing: the island partition must be at
            // least one island per cluster plus the top shell.
            let plan_islands =
                llhd_sim::IslandPlan::build(&module, &elaborated).num_islands();
            assert!(
                plan_islands >= design.min_islands,
                "seed {seed}: {} islands < {} clusters+shell",
                plan_islands,
                design.min_islands
            );
        }
        assert!(
            shapes.iter().all(|&n| n >= 32),
            "stimulus shapes {shapes:?}"
        );
    }

    /// A counted stimulus runs outer × inner clock cycles, then halts, on
    /// both engines.
    #[test]
    fn counted_stimulus_runs_its_count_then_halts() {
        let mut plan = DesignPlan::generate(0);
        plan.clusters.truncate(1);
        let clk = format!("c{}_clk", plan.clusters[0].id);
        for (outer, inner, cycles) in [
            (3, None, 3),
            (3, Some(2), 6),
            (0, Some(5), 0),
            (2, Some(0), 0),
            (1, Some(1), 1),
        ] {
            plan.clusters[0].stim = StimPlan::Counted { outer, inner };
            let (design, module) = plan.build().unwrap();
            for engine in [
                llhd_sim::EngineKind::Interpret,
                llhd_sim::EngineKind::Compile,
            ] {
                let result = llhd_blaze::session(&module, &design.top)
                    .engine(engine)
                    .until_nanos(design.until_ns)
                    .build()
                    .unwrap()
                    .run()
                    .unwrap();
                assert_eq!(
                    result.trace.changes_of(&clk).count(),
                    2 * cycles,
                    "{engine:?}: repeat ({outer}) of {inner:?}"
                );
            }
        }
    }

    /// Racing clusters really do race: with a racer present, the race
    /// signal's final value depends on deterministic last-writer-wins
    /// ordering, and the design still simulates cleanly.
    #[test]
    fn race_clusters_simulate() {
        // Find a seed with at least one racer.
        let plan = (0..64)
            .map(DesignPlan::generate)
            .find(|p| p.clusters.iter().any(|c| !c.racers.is_empty()))
            .expect("some seed in 0..64 has a racer");
        let (design, module) = plan.build().unwrap();
        let result = llhd_blaze::session(&module, &design.top)
            .engine(llhd_sim::EngineKind::Interpret)
            .until_nanos(design.until_ns)
            .build()
            .unwrap()
            .run()
            .unwrap();
        let race = &plan
            .clusters
            .iter()
            .find(|c| !c.racers.is_empty())
            .map(|c| format!("c{}_race", c.id))
            .unwrap();
        assert!(
            result.trace.changes_of(race).count() > 0,
            "race signal {race} never changed"
        );
    }
}
