//! Committed expected answers.
//!
//! `golden/digests.txt` holds, per `(design, cycles)`, the FNV-1a digest of
//! the full VCD plus `signal_changes` and `end_time`, and per module the
//! `LoweringReport` counts. `--bless` regenerates it from the interpreter.
//! The file was produced by this repository's own interpreter: it pins the
//! engines to an earlier self, not to an external simulator, so the model
//! stays *unvalidated* and the benchmark states no error figure.
//!
//! Inputs generated from a non-default `--seed` have no committed answer;
//! their expected answer is computed by the interpreter before timing
//! starts (see [`Golden::sim`]).

use crate::stats::fnv1a;
use llhd::ir::Module;
use llhd_sim::api::{EngineKind, SimSession};
use llhd_sim::{SimConfig, SimResult};
use std::collections::BTreeMap;
use std::path::PathBuf;

const COMMITTED: &str = include_str!("../golden/digests.txt");

/// The expected outcome of one simulation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SimAnswer {
    pub changes: u64,
    pub end_fs: u128,
    /// Digest of `Trace::to_vcd("1fs")` of the fully traced run; `None`
    /// where only the untraced statistics are pinned (the long runs).
    pub vcd: Option<u64>,
}

impl SimAnswer {
    /// The answer a finished run gives. `traced` says whether the run
    /// recorded every signal, i.e. whether its VCD is the full one.
    pub fn of(result: &SimResult, traced: bool) -> Self {
        SimAnswer {
            changes: result.signal_changes as u64,
            end_fs: result.end_time.as_femtos(),
            vcd: traced.then(|| fnv1a(result.trace.to_vcd("1fs").as_bytes())),
        }
    }

    /// Equality on what both sides pin (a missing VCD digest pins nothing).
    pub fn agrees(&self, other: &SimAnswer) -> bool {
        self.changes == other.changes
            && self.end_fs == other.end_fs
            && match (self.vcd, other.vcd) {
                (Some(a), Some(b)) => a == b,
                _ => true,
            }
    }
}

/// The expected `LoweringReport` of one module.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LowerAnswer {
    pub lowered: u64,
    pub deseq: u64,
    pub rejected: u64,
    pub inlined: u64,
}

pub struct Golden {
    sims: BTreeMap<(String, u64, bool), SimAnswer>,
    lowers: BTreeMap<String, LowerAnswer>,
    /// With `--bless`: ignore the committed file and collect fresh answers.
    bless: bool,
}

/// `Gray Enc./Dec.` → `gray-enc-dec`: the key form of a design name.
pub fn slug(name: &str) -> String {
    let mut out = String::new();
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('-') {
            out.push('-');
        }
    }
    out.trim_matches('-').to_string()
}

/// The interpreter's answer: the reference every other engine, the server
/// and the router are held to.
pub fn interpret(module: &Module, top: &str, until_ns: u128, traced: bool) -> SimAnswer {
    let mut config = SimConfig::until_nanos(until_ns);
    config.trace = traced;
    let result = SimSession::builder(module, top)
        .engine(EngineKind::Interpret)
        .config(config)
        .build()
        .and_then(SimSession::run)
        .expect("the reference interpreter runs every benchmark input");
    SimAnswer::of(&result, traced)
}

impl Golden {
    pub fn load(bless: bool) -> Self {
        let mut golden = Golden {
            sims: BTreeMap::new(),
            lowers: BTreeMap::new(),
            bless,
        };
        if !bless {
            golden.parse(COMMITTED);
        }
        golden
    }

    fn parse(&mut self, text: &str) {
        for line in text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let field = |key: &str| -> &str {
                fields
                    .iter()
                    .find_map(|f| f.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
                    .unwrap_or_else(|| panic!("golden line without `{}`: {}", key, line))
            };
            let number = |key: &str| -> u128 {
                field(key)
                    .parse()
                    .unwrap_or_else(|_| panic!("golden `{}` is not a number: {}", key, line))
            };
            match fields[0] {
                "sim" => {
                    let vcd = match field("vcd") {
                        "-" => None,
                        hex => Some(
                            u64::from_str_radix(hex, 16)
                                .unwrap_or_else(|_| panic!("golden digest is not hex: {}", line)),
                        ),
                    };
                    self.sims.insert(
                        (
                            fields[1].to_string(),
                            number("cycles") as u64,
                            vcd.is_some(),
                        ),
                        SimAnswer {
                            changes: number("changes") as u64,
                            end_fs: number("end_fs"),
                            vcd,
                        },
                    );
                }
                "lower" => {
                    self.lowers.insert(
                        fields[1].to_string(),
                        LowerAnswer {
                            lowered: number("lowered") as u64,
                            deseq: number("deseq") as u64,
                            rejected: number("rejected") as u64,
                            inlined: number("inlined") as u64,
                        },
                    );
                }
                other => panic!("unknown golden record `{}`", other),
            }
        }
    }

    /// The expected answer for `key` at `cycles`: the committed one when
    /// the file has it, otherwise (another seed's generated input, or
    /// `--bless`) whatever `compute` — the interpreter — says now.
    pub fn sim(
        &mut self,
        key: &str,
        cycles: u64,
        traced: bool,
        compute: impl FnOnce() -> SimAnswer,
    ) -> SimAnswer {
        *self
            .sims
            .entry((key.to_string(), cycles, traced))
            .or_insert_with(compute)
    }

    /// The committed `LoweringReport` counts of `key`, or `fresh` when
    /// blessing. `None`: the module has no committed answer.
    pub fn lower(&mut self, key: &str, fresh: LowerAnswer) -> Option<LowerAnswer> {
        if self.bless {
            self.lowers.insert(key.to_string(), fresh);
        }
        self.lowers.get(key).copied()
    }

    /// Merge another collector's answers (used by `--bless`, which visits
    /// every workload).
    pub fn absorb(&mut self, other: Golden) {
        self.sims.extend(other.sims);
        self.lowers.extend(other.lowers);
    }

    pub fn path() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden/digests.txt")
    }

    pub fn render(&self) -> String {
        let mut out = String::from(
            "# Expected answers of the benchmark inputs at the default seed, written by\n\
             # `llhd-benchmark --bless` from the reference interpreter. Unvalidated against\n\
             # any external simulator. vcd = FNV-1a 64 of Trace::to_vcd(\"1fs\"), `-` = untraced.\n",
        );
        for ((key, cycles, _), a) in &self.sims {
            let vcd = a.vcd.map_or("-".to_string(), |d| format!("{:016x}", d));
            out.push_str(&format!(
                "sim {} cycles={} vcd={} changes={} end_fs={}\n",
                key, cycles, vcd, a.changes, a.end_fs
            ));
        }
        for (key, a) in &self.lowers {
            out.push_str(&format!(
                "lower {} lowered={} deseq={} rejected={} inlined={}\n",
                key, a.lowered, a.deseq, a.rejected, a.inlined
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slugs() {
        assert_eq!(slug("Gray Enc./Dec."), "gray-enc-dec");
        assert_eq!(slug("RISC-V Core"), "risc-v-core");
        assert_eq!(slug("fir-bank-16x32-s7"), "fir-bank-16x32-s7");
    }

    #[test]
    fn render_parse_round_trip() {
        let mut g = Golden::load(true);
        g.sim("a", 5, true, || SimAnswer {
            changes: 3,
            end_fs: 9,
            vcd: Some(0xabc),
        });
        g.sim("a", 5, false, || SimAnswer {
            changes: 3,
            end_fs: 9,
            vcd: None,
        });
        g.lower(
            "m",
            LowerAnswer {
                lowered: 1,
                deseq: 2,
                rejected: 3,
                inlined: 4,
            },
        );
        let text = g.render();
        let mut back = Golden::load(true);
        back.bless = false;
        back.parse(&text);
        assert_eq!(back.render(), text);
        let hit = back.sim("a", 5, true, || {
            panic!("committed answers are not recomputed")
        });
        assert_eq!(hit.vcd, Some(0xabc));
    }

    #[test]
    fn the_committed_file_parses() {
        Golden::load(false);
    }
}
