//! The inputs the program under test sees, all derived from `--seed`.

use crate::golden::slug;
use llhd::ir::Module;
use llhd_designs::{all_designs, fir_bank, noc_mesh, Frontend};

/// Instructions of every unit of `module`.
pub fn module_insts(module: &Module) -> usize {
    module
        .units()
        .into_iter()
        .map(|id| module.unit(id).num_total_insts())
        .sum()
}

/// Simulated clock cycles of every short run (cold-suite, serving).
pub const SHORT_CYCLES: u64 = 200;

/// One design as source text: what a user hands the toolchain.
#[derive(Clone)]
pub struct Source {
    /// The golden-file key.
    pub key: String,
    pub top: String,
    pub text: String,
    pub frontend: Frontend,
    pub clock_period_ns: u128,
    /// A signal whose activity shows the design is alive.
    pub probe: String,
}

impl Source {
    /// Source text → module through the frontend the design needs.
    pub fn build(&self) -> Module {
        match self.frontend {
            Frontend::Moore => moore::compile(&self.text).expect("benchmark source compiles"),
            Frontend::Assembly => {
                llhd::assembly::parse_module(&self.text).expect("benchmark source parses")
            }
        }
    }

    pub fn until_ns(&self, cycles: u64) -> u128 {
        self.clock_period_ns * cycles as u128 + 10
    }
}

/// The ten designs of the paper's Table 2, in table order.
pub fn paper_sources() -> Vec<Source> {
    all_designs()
        .into_iter()
        .map(|d| Source {
            key: slug(d.name),
            top: d.top.to_string(),
            text: match d.frontend {
                Frontend::Moore => d.sv_source.to_string(),
                Frontend::Assembly => d.llhd_source.to_string(),
            },
            frontend: d.frontend,
            clock_period_ns: d.clock_period_ns,
            probe: d.probe_signal.to_string(),
        })
        .collect()
}

fn generated(design: llhd_designs::GeneratedDesign) -> Source {
    Source {
        key: design.name.clone(),
        top: design.top,
        text: design.llhd_source,
        frontend: Frontend::Assembly,
        clock_period_ns: design.clock_period_ns,
        probe: design.probe_signal,
    }
}

/// The four free-running designs with their cycle counts and the short
/// name their per-design metrics carry. The two generated ones take their
/// tap weights and stimulus from the seed; the eight Moore testbenches are
/// `repeat (200)`-unrolled and cannot run long.
pub fn long_run_sources(seed: u64) -> Vec<(Source, u64, &'static str)> {
    let paper = paper_sources();
    let pick = |key: &str| {
        paper
            .iter()
            .find(|s| s.key == key)
            .expect("paper design")
            .clone()
    };
    vec![
        (generated(fir_bank(16, 32, seed)), 500, "fir-bank"),
        (
            generated(noc_mesh(8, 8, seed.wrapping_add(4))),
            1_000,
            "noc-mesh",
        ),
        (pick("fifo-queue"), 15_000, "fifo"),
        (pick("risc-v-core"), 20_000, "riscv"),
    ]
}

/// Hot and cold designs of `serve-churn`.
pub const CHURN_HOT: usize = 8;
pub const CHURN_COLD: usize = 120;
/// Simulated cycles of a `serve-churn` request.
pub const CHURN_CYCLES: u64 = 100;

/// `CHURN_HOT + CHURN_COLD` distinct small generated designs, hot ones
/// first: both families at small scales, one design seed each.
pub fn churn_sources(seed: u64) -> Vec<Source> {
    (0..(CHURN_HOT + CHURN_COLD) as u64)
        .map(|i| {
            let design_seed = seed.wrapping_mul(1_000).wrapping_add(i);
            generated(match i % 4 {
                0 => fir_bank(8, 16, design_seed),
                1 => noc_mesh(4, 6, design_seed),
                2 => fir_bank(12, 8, design_seed),
                _ => noc_mesh(6, 4, design_seed),
            })
        })
        .collect()
}

/// The accumulator running example (Fig. 2/3/5) followed by the ten paper
/// designs: the modules the `lower` workload lowers.
pub fn lower_sources() -> Vec<Source> {
    let mut sources = vec![Source {
        key: "accumulator".to_string(),
        top: "acc_tb".to_string(),
        text: llhd_designs::accumulator_source().to_string(),
        frontend: Frontend::Moore,
        clock_period_ns: 2,
        probe: "q".to_string(),
    }];
    sources.extend(paper_sources());
    sources
}
