//! # llhd-fuzz — differential fuzzing of the LLHD simulation engines
//!
//! The repository's core correctness claim is that both engines over the
//! same design — the reference interpreter and the blaze compiled engine,
//! across any checkpoint/restore cut — produce the **byte-identical**
//! trace. The curated benchmark
//! corpus pins that claim on ten designs; this crate pins it on an
//! unbounded stream of generated ones.
//!
//! Four pieces, each replayable from a single `u64` seed:
//!
//! * [`gen`] — a seeded random-design generator that emits valid,
//!   elaboratable LLHD modules *by construction*: random mixes of
//!   processes, combinational and register entities, nested
//!   instantiation, wait sensitivities, multi-driver same-timestamp
//!   drive races, the exact op shapes the blaze superinstruction fuser
//!   targets (compare+branch, array+mux, compute+drive), and data widths
//!   on both sides of blaze's 64-bit machine-word boundary.
//! * [`stim`] — a constrained-random stimulus schedule over the
//!   engines' step/peek/poke surface, including checkpoint/restore at
//!   random cut points.
//! * [`diff`] — the differential driver: one case runs the reference
//!   interpreter and blaze in lockstep and compares traces, VCD
//!   serializations, statistics, and peek logs byte for byte.
//! * [`shrink`] + [`artifact`] — on divergence, minimize the design and
//!   the schedule while the mismatch reproduces, then emit a
//!   self-contained replay artifact that can be promoted into the
//!   committed regression corpus (`crates/llhd-designs/tests/corpus/`).
//!
//! The `fuzz` binary wires it all together; `ci.sh` runs it with a
//! fixed seed as a smoke gate. See ARCHITECTURE.md, "Differential
//! fuzzing".

pub mod artifact;
pub mod diff;
pub mod gen;
pub mod rng;
pub mod shrink;
pub mod stim;

pub use artifact::{promote, Artifact};
pub use diff::{default_matrix, run_case, run_matrix, CaseFailure, Divergence, EngineSpec};
pub use gen::{DesignPlan, FuzzDesign};
pub use rng::FuzzRng;
pub use shrink::{shrink_case, ShrinkStats};
pub use stim::{Schedule, StimOp};

/// Derive the per-case seed from a base seed and a case index
/// (splitmix64 over the pair, so neighbouring cases are decorrelated
/// but every case is reachable from the one `--seed` a user passes).
pub fn case_seed(base: u64, case: u64) -> u64 {
    let mut z = base ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_seeds_are_distinct_and_deterministic() {
        let a = case_seed(7, 0);
        let b = case_seed(7, 1);
        assert_ne!(a, b);
        assert_eq!(case_seed(7, 1), b);
        assert_ne!(case_seed(8, 0), a);
    }
}
