//! Divergence minimization.
//!
//! Shrinking operates on the *plan*, not on the emitted text: every
//! mutation (drop a cluster, clear the racers, un-nest, flatten a counted
//! stimulus, trim a unit, shorten the schedule) re-emits through the generator, so each
//! candidate is a valid design by the same construction argument as the
//! original. The caller supplies the reproduction predicate — usually
//! "the differential matrix still diverges", but the pin workflow uses a
//! coverage predicate instead — and the shrinker greedily applies the
//! first accepted mutation until a whole pass over all mutations yields
//! nothing, or the attempt budget runs out.

use crate::gen::{DesignPlan, StimPlan, UnitPlan};
use crate::stim::{Schedule, StimOp};

/// Bookkeeping from one shrink run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShrinkStats {
    /// Predicate evaluations spent.
    pub attempts: usize,
    /// Mutations that kept the reproduction and were applied.
    pub accepted: usize,
}

/// Drop schedule ops that name signals the (mutated) design no longer
/// has, so plan-level shrinks don't leave dangling poke/peek targets.
fn sanitize(schedule: &Schedule, plan: &DesignPlan) -> Schedule {
    let design = plan.emit();
    let ops = schedule
        .ops
        .iter()
        .filter(|op| match op {
            StimOp::Poke { signal, .. } | StimOp::Peek { signal } => {
                design.signals.iter().any(|(name, _)| name == signal)
            }
            _ => true,
        })
        .cloned()
        .collect();
    Schedule { ops }
}

/// All single-step plan mutations, smallest-result-first per category.
fn plan_candidates(plan: &DesignPlan) -> Vec<DesignPlan> {
    let mut out = Vec::new();
    if plan.clusters.len() > 1 {
        for i in 0..plan.clusters.len() {
            let mut p = plan.clone();
            p.clusters.remove(i);
            out.push(p);
        }
    }
    for (i, c) in plan.clusters.iter().enumerate() {
        if !c.racers.is_empty() {
            let mut p = plan.clone();
            p.clusters[i].racers.clear();
            out.push(p);
        }
        if c.nested {
            let mut p = plan.clone();
            p.clusters[i].nested = false;
            out.push(p);
        }
        if let StimPlan::Counted { outer, inner } = c.stim {
            let mut p = plan.clone();
            p.clusters[i].stim = match inner {
                Some(_) => StimPlan::Counted { outer, inner: None },
                None => StimPlan::Free,
            };
            out.push(p);
        }
        if c.units.len() > 1 {
            for j in 0..c.units.len() {
                let mut p = plan.clone();
                p.clusters[i].units.remove(j);
                out.push(p);
            }
        }
        for (j, unit) in c.units.iter().enumerate() {
            match unit {
                UnitPlan::Comb {
                    ops,
                    mix_race,
                    mux_tail,
                } => {
                    if ops.len() > 1 {
                        let mut p = plan.clone();
                        if let UnitPlan::Comb { ops, .. } = &mut p.clusters[i].units[j] {
                            ops.truncate(ops.len() / 2);
                        }
                        out.push(p);
                    }
                    if *mux_tail {
                        let mut p = plan.clone();
                        if let UnitPlan::Comb { mux_tail, .. } = &mut p.clusters[i].units[j] {
                            *mux_tail = false;
                        }
                        out.push(p);
                    }
                    if *mix_race {
                        let mut p = plan.clone();
                        if let UnitPlan::Comb { mix_race, .. } = &mut p.clusters[i].units[j] {
                            *mix_race = false;
                        }
                        out.push(p);
                    }
                }
                UnitPlan::Pipe { taps, .. } => {
                    if *taps > 1 {
                        let mut p = plan.clone();
                        if let UnitPlan::Pipe { taps, weights } = &mut p.clusters[i].units[j] {
                            *taps /= 2;
                            weights.truncate(*taps);
                        }
                        out.push(p);
                    }
                }
                UnitPlan::Reg => {}
            }
        }
    }
    out
}

/// All single-step schedule mutations: chunk removals from coarse to
/// fine, then step-count halving.
fn schedule_candidates(schedule: &Schedule) -> Vec<Schedule> {
    let mut out = Vec::new();
    let n = schedule.ops.len();
    if n == 0 {
        return out;
    }
    let mut chunk = (n / 2).max(1);
    while chunk >= 1 {
        let mut start = 0;
        while start < n {
            let end = (start + chunk).min(n);
            let mut s = schedule.clone();
            s.ops.drain(start..end);
            out.push(s);
            start += chunk;
        }
        if chunk == 1 {
            break;
        }
        chunk /= 2;
    }
    for (i, op) in schedule.ops.iter().enumerate() {
        if let StimOp::Step { cycles } = op {
            if *cycles > 1 {
                let mut s = schedule.clone();
                s.ops[i] = StimOp::Step { cycles: cycles / 2 };
                out.push(s);
            }
        }
    }
    out
}

/// Greedily minimize `(plan, schedule)` while `repro` keeps returning
/// `true`. Runs mutation passes to fixpoint or until `max_attempts`
/// predicate evaluations are spent (each evaluation typically replays
/// the full engine matrix, so the budget bounds wall-clock).
pub fn shrink_case(
    plan: &DesignPlan,
    schedule: &Schedule,
    mut repro: impl FnMut(&DesignPlan, &Schedule) -> bool,
    max_attempts: usize,
) -> (DesignPlan, Schedule, ShrinkStats) {
    let mut best_plan = plan.clone();
    let mut best_schedule = schedule.clone();
    let mut stats = ShrinkStats::default();
    loop {
        let mut improved = false;
        let candidates: Vec<(DesignPlan, Schedule)> = plan_candidates(&best_plan)
            .into_iter()
            .map(|p| {
                let s = sanitize(&best_schedule, &p);
                (p, s)
            })
            .chain(
                schedule_candidates(&best_schedule)
                    .into_iter()
                    .map(|s| (best_plan.clone(), s)),
            )
            .collect();
        for (p, s) in candidates {
            if stats.attempts >= max_attempts {
                return (best_plan, best_schedule, stats);
            }
            stats.attempts += 1;
            if repro(&p, &s) {
                stats.accepted += 1;
                best_plan = p;
                best_schedule = s;
                improved = true;
                break;
            }
        }
        if !improved {
            return (best_plan, best_schedule, stats);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stim::Schedule;

    /// Shrinking against an always-true predicate must reach the global
    /// minimum: one cluster, one unit, no racers, no nesting, an empty
    /// schedule.
    #[test]
    fn shrinks_to_minimum_under_always_true() {
        // A seed with at least two clusters makes the pass non-trivial.
        let plan = (0..64)
            .map(DesignPlan::generate)
            .find(|p| p.clusters.len() >= 2)
            .expect("some seed has >=2 clusters");
        let design = plan.emit();
        let schedule = Schedule::generate(5, &design);
        let (small_plan, small_schedule, stats) =
            shrink_case(&plan, &schedule, |_, _| true, 10_000);
        assert_eq!(small_plan.clusters.len(), 1);
        let c = &small_plan.clusters[0];
        assert_eq!(c.units.len(), 1);
        assert!(c.racers.is_empty());
        assert!(!c.nested);
        assert!(small_schedule.ops.is_empty());
        assert!(stats.accepted > 0);
        // The shrunk plan must still emit a buildable design.
        small_plan.build().expect("shrunk plan still builds");
    }

    /// A predicate that pins a property (cluster 1 must survive) is
    /// respected, and the surviving cluster keeps its stable id so
    /// schedule targets keep resolving.
    #[test]
    fn respects_predicate_and_stable_ids() {
        let plan = (0..64)
            .map(DesignPlan::generate)
            .find(|p| p.clusters.len() >= 2)
            .unwrap();
        let (small, _, _) = shrink_case(
            &plan,
            &Schedule::default(),
            |p, _| p.clusters.iter().any(|c| c.id == 1),
            10_000,
        );
        assert!(small.clusters.iter().any(|c| c.id == 1));
        // Emission uses the preserved id, not the vector position.
        let design = small.emit();
        assert!(design.signals.iter().any(|(n, _)| n.starts_with("c1_")));
    }
}
