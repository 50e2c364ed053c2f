//! Greedy reduction of diverging cases to minimal reproducers.
//!
//! The shrinker never needs to understand *why* a case diverges: it
//! re-runs the full oracle stack after every candidate reduction and
//! keeps the smaller case whenever any divergence (not necessarily
//! the original one) persists. Reductions are attempted to a
//! fixpoint, in this order per round:
//!
//! 1. truncate the stimulus at the first divergence,
//! 2. drop the leading stimulus cycle,
//! 3. reduce `depth` towards 2,
//! 4. reduce `data_width` towards 1 (re-masking the stimulus),
//! 5. reduce `addr_width` / `key_width` towards their floors,
//! 6. reduce the `wr`/`rd` clock periods towards the synchronous 1:1
//!    ratio (multi-domain designs only).
//!
//! A structural candidate that leaves the `DesignSpec::validate`
//! envelope is skipped, so every written reproducer is one the
//! service's wire path accepts.

use crate::oracle::{check, Divergence, Stimulus};
use hdp_metagen::sampler::DesignSpec;

/// A design/stimulus pair — the unit the fuzzer checks and the
/// shrinker minimises.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Case {
    /// The design-space point.
    pub spec: DesignSpec,
    /// The input trace driving it.
    pub stimulus: Stimulus,
}

impl Case {
    /// Runs the oracle stack on this case.
    #[must_use]
    pub fn check(&self) -> Option<Divergence> {
        match self.spec.instantiate() {
            Ok(netlist) => check(&netlist, &self.stimulus),
            Err(e) => Some(Divergence {
                cycle: 0,
                port: None,
                details: vec![("generator".to_owned(), format!("error: {e}"))],
            }),
        }
    }
}

/// Builds the candidate with `mutate` applied to the spec, rebinding
/// the stimulus onto the regenerated netlist. `None` if the mutated
/// spec leaves the [`DesignSpec::validate`] envelope (the service's
/// wire path would reject the reproducer), no longer generates or the
/// ports changed shape.
fn mutated(case: &Case, mutate: impl FnOnce(&mut DesignSpec)) -> Option<Case> {
    let mut spec = case.spec.clone();
    mutate(&mut spec);
    spec.validate().ok()?;
    let netlist = spec.instantiate().ok()?;
    let stimulus = case.stimulus.rebind(&netlist)?;
    Some(Case { spec, stimulus })
}

/// Greedily shrinks a diverging case; returns the minimal case and
/// its divergence. If `case` does not diverge it is returned with
/// `None` untouched.
#[must_use]
pub fn shrink(case: &Case) -> (Case, Option<Divergence>) {
    let Some(mut divergence) = case.check() else {
        return (case.clone(), None);
    };
    let mut best = case.clone();
    // Cap the effort: each accepted reduction re-runs six oracles.
    let mut budget = 200usize;
    loop {
        let mut reduced = false;
        // 1. Truncate at the divergence (always sound: the prefix
        // reproduces it by definition).
        if best.stimulus.cycles.len() > divergence.cycle + 1 {
            best.stimulus.cycles.truncate(divergence.cycle + 1);
            reduced = true;
        }
        type Reduction = fn(&mut DesignSpec);
        let spec_reductions: [(bool, Reduction); 6] = [
            (best.spec.depth > 2, |s| s.depth -= 1),
            (best.spec.data_width > 1 && best.spec.wide == 0, |s| {
                s.data_width -= 1;
            }),
            (best.spec.addr_width > 8, |s| s.addr_width -= 1),
            (best.spec.key_width > 8, |s| s.key_width -= 1),
            (best.spec.wr_period > 1, |s| s.wr_period -= 1),
            (best.spec.rd_period > 1, |s| s.rd_period -= 1),
        ];
        // 2. Drop the leading cycle (state evolves differently, but
        // any surviving divergence is as good as the original).
        if best.stimulus.cycles.len() > 1 && budget > 0 {
            budget -= 1;
            let mut candidate = best.clone();
            candidate.stimulus.cycles.remove(0);
            if let Some(d) = candidate.check() {
                best = candidate;
                divergence = d;
                reduced = true;
            }
        }
        // 3..5. Structural reductions.
        for (applicable, mutate) in spec_reductions {
            if !applicable || budget == 0 {
                continue;
            }
            budget -= 1;
            if let Some(candidate) = mutated(&best, mutate) {
                if let Some(d) = candidate.check() {
                    best = candidate;
                    divergence = d;
                    reduced = true;
                }
            }
        }
        if !reduced || budget == 0 {
            return (best, Some(divergence));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdp_metagen::sampler::sample_spec;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn conforming_case_is_left_alone() {
        let mut rng = StdRng::seed_from_u64(9);
        let spec = sample_spec(&mut rng);
        let netlist = spec.instantiate().unwrap();
        let stimulus = Stimulus::sample(&netlist, 6, &mut rng);
        let case = Case { spec, stimulus };
        let (shrunk, d) = shrink(&case);
        assert!(d.is_none());
        assert_eq!(shrunk.stimulus.cycles.len(), case.stimulus.cycles.len());
    }

    #[test]
    fn a_reduction_outside_the_validate_envelope_is_skipped() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut spec = sample_spec(&mut rng);
        spec.depth = spec.depth.max(3);
        let netlist = spec.instantiate().unwrap();
        let stimulus = Stimulus::sample(&netlist, 4, &mut rng);
        let case = Case { spec, stimulus };
        assert!(mutated(&case, |s| s.depth -= 1).is_some());
        // A write period far past its bound stays past it after one
        // step down, and so does the spec after a reduction of another
        // axis: both candidates are dropped.
        let mut outside = case;
        outside.spec.wr_period = 1 << 40;
        assert!(outside.spec.validate().is_err());
        assert!(mutated(&outside, |s| s.wr_period -= 1).is_none());
        assert!(mutated(&outside, |s| s.depth -= 1).is_none());
    }

    #[test]
    fn generator_failure_is_reported_as_divergence() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut spec = sample_spec(&mut rng);
        spec.family = 7; // assoc_bram
        spec.key_width = 0; // invalid: below the address width
        let case = Case {
            spec,
            stimulus: Stimulus {
                inputs: vec![],
                cycles: vec![vec![]],
            },
        };
        let d = case.check().expect("invalid spec must not conform");
        assert_eq!(d.cycle, 0);
        assert!(d.details[0].1.contains("error"), "{:?}", d.details);
    }

    /// The one deterministic divergence the repo can always produce:
    /// a spec that fails to generate (reported as a cycle-0
    /// divergence), dressed with a long stimulus for the shrinker to
    /// chew through.
    fn known_divergence(cycles: usize) -> Case {
        let mut rng = StdRng::seed_from_u64(4);
        let mut spec = sample_spec(&mut rng);
        spec.family = 7; // assoc_bram
        spec.key_width = 0; // invalid: below the address width
        Case {
            spec,
            stimulus: Stimulus {
                inputs: vec![],
                cycles: vec![vec![]; cycles],
            },
        }
    }

    #[test]
    fn known_divergence_shrinks_to_one_cycle_within_budget() {
        let case = known_divergence(30);
        let (minimal, d) = shrink(&case);
        let d = d.expect("the shrunk case must still diverge");
        // A cycle-0 divergence truncates the whole 30-cycle tail in
        // one sound step — no recheck spent, far inside the 200
        // budget — and nothing below one cycle is attempted.
        assert_eq!(d.cycle, 0);
        assert_eq!(minimal.stimulus.cycles.len(), 1);
        // The offending spec axes survive untouched: a candidate that
        // no longer even generates can't be rebound, so the shrinker
        // keeps the smallest case that still reproduces.
        assert_eq!(minimal.spec.family, case.spec.family);
        assert_eq!(minimal.spec.key_width, 0);
    }

    #[test]
    fn shrinking_is_idempotent_on_a_minimal_case() {
        let (minimal, _) = shrink(&known_divergence(30));
        let (again, d) = shrink(&minimal);
        assert_eq!(again, minimal);
        assert!(d.is_some(), "minimal case must keep diverging");
    }

    #[test]
    fn shrunk_reproducer_round_trips_through_the_wire_format() {
        let (minimal, d) = shrink(&known_divergence(12));
        let d = d.expect("still diverges");
        let text = crate::wire::repro_to_json(4, &minimal, &d);
        let back = crate::wire::parse_case(&text).expect("reproducer parses");
        assert_eq!(back, minimal);
        // Replay re-runs the oracles from the document alone and sees
        // the same divergence — the committed-fixture contract that
        // tests/repros/ relies on.
        let replayed = crate::wire::replay(&text)
            .expect("parses")
            .expect("still diverges after the round trip");
        assert_eq!(replayed.cycle, d.cycle);
    }
}
