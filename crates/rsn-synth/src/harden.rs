//! Selective multiplexer address hardening under an area budget.
//!
//! The paper TMR-protects *every* multiplexer address net (Sec. III-E-3).
//! TMR triples the address logic, so on large networks a designer may
//! prefer to spend the overhead only where it buys accessibility. This
//! module ranks multiplexers by the accessibility their address faults
//! destroy and selects the top candidates within a budget.
//!
//! Hardening one multiplexer only masks *its own* address faults (the
//! [`rsn_fault::effect_of`] translation turns them benign); it does not
//! change the network structure or any other fault's effect. Per-mux
//! gains are therefore additive across the fault-weighted metric, and a
//! greedy top-k selection is exact for a cardinality budget. The ranking
//! evaluates two address faults per multiplexer on a single shared
//! [`AccessEngine`] — the precomputation is paid once for the whole sweep.

use rsn_core::{NodeId, Rsn, RsnBuilder};
use rsn_fault::{
    effect_of, AccessEngine, Accessibility, Fault, FaultEffect, FaultSite, HardeningProfile, LANES,
};

/// Ranked outcome of a hardening-budget selection.
#[derive(Debug, Clone, PartialEq)]
pub struct MuxHardeningPlan {
    /// Every not-yet-hardened multiplexer with its accessibility gain:
    /// the summed segment-accessibility loss of its two address faults
    /// (stuck-at-0 + stuck-at-1) that TMR would mask. Sorted by gain
    /// descending, ties by node id for determinism.
    pub ranked: Vec<(NodeId, f64)>,
    /// The selected multiplexers: the top `budget` entries of `ranked`
    /// with strictly positive gain.
    pub chosen: Vec<NodeId>,
    /// The requested budget.
    pub budget: usize,
}

impl MuxHardeningPlan {
    /// Total accessibility gain of the chosen set.
    pub fn chosen_gain(&self) -> f64 {
        self.ranked
            .iter()
            .filter(|(m, _)| self.chosen.contains(m))
            .map(|&(_, g)| g)
            .sum()
    }
}

/// Ranks all unhardened multiplexers by the accessibility their address
/// faults destroy and picks the best `budget` of them.
///
/// # Example
///
/// ```
/// use rsn_core::examples::fig2;
/// use rsn_fault::HardeningProfile;
/// use rsn_synth::harden::select_mux_hardening;
///
/// let rsn = fig2();
/// let plan = select_mux_hardening(&rsn, 1, HardeningProfile::unhardened());
/// // Fig. 2's single mux loses segment C when its address sticks: worth
/// // hardening.
/// assert_eq!(plan.chosen.len(), 1);
/// ```
pub fn select_mux_hardening(
    rsn: &Rsn,
    budget: usize,
    profile: HardeningProfile,
) -> MuxHardeningPlan {
    let _span = rsn_obs::Span::enter("select_mux_hardening");
    let engine = AccessEngine::new(rsn);
    let candidates: Vec<NodeId> = rsn
        .muxes()
        .filter(|&m| !rsn.node(m).as_mux().expect("muxes() yields muxes").hardened)
        .collect();
    // Both address polarities of every candidate; the faulty effects are
    // evaluated `LANES` at a time, and benign ones score 1.0 without a
    // lane.
    let effects: Vec<FaultEffect> = candidates
        .iter()
        .flat_map(|&m| {
            [false, true].map(|value| {
                let fault = Fault {
                    site: FaultSite::MuxAddress(m),
                    value,
                    weight: 1,
                };
                effect_of(rsn, &fault, profile)
            })
        })
        .collect();
    let faulty: Vec<&FaultEffect> = effects.iter().filter(|e| !e.is_benign()).collect();
    let mut scratch = engine.scratch();
    let mut faulty_fracs = Vec::with_capacity(faulty.len());
    for chunk in faulty.chunks(LANES) {
        let accs = engine.accessibility_batch(chunk, &mut scratch);
        faulty_fracs.extend(accs.iter().map(Accessibility::segment_fraction));
    }
    let mut faulty_fracs = faulty_fracs.into_iter();
    let mut ranked: Vec<(NodeId, f64)> = candidates
        .iter()
        .zip(effects.chunks(2))
        .map(|(&m, pair)| {
            let mut gain = 0.0;
            for effect in pair {
                let frac = if effect.is_benign() {
                    1.0
                } else {
                    faulty_fracs.next().expect("one verdict per faulty effect")
                };
                gain += 1.0 - frac;
            }
            (m, gain)
        })
        .collect();
    ranked.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.index().cmp(&b.0.index()))
    });
    let chosen: Vec<NodeId> = ranked
        .iter()
        .take(budget)
        .filter(|&&(_, g)| g > 0.0)
        .map(|&(m, _)| m)
        .collect();
    rsn_obs::counter_add("synth.hardened_muxes", chosen.len() as u64);
    MuxHardeningPlan {
        ranked,
        chosen,
        budget,
    }
}

/// Marks the chosen multiplexers as TMR-hardened in a builder. The node
/// ids must come from a probe network built from the same builder
/// (`finish` keeps arena ids stable).
pub fn apply_mux_hardening(builder: &mut RsnBuilder, chosen: &[NodeId]) {
    for &m in chosen {
        builder.harden_mux(m);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsn_core::examples::{chain, fig2};
    use rsn_fault::analyze;
    use rsn_itc02::parse_soc;
    use rsn_sib::generate;

    #[test]
    fn fig2_mux_is_worth_hardening() {
        let rsn = fig2();
        let plan = select_mux_hardening(&rsn, 4, HardeningProfile::unhardened());
        assert_eq!(plan.ranked.len(), 1);
        let (m, gain) = plan.ranked[0];
        assert_eq!(m, rsn.find("M").expect("mux"));
        // Address stuck-at-0 loses C, stuck-at-1 loses B: 1/4 each.
        assert!((gain - 0.5).abs() < 1e-9, "gain {gain}");
        assert_eq!(plan.chosen, vec![m]);
        assert!((plan.chosen_gain() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn zero_budget_chooses_nothing() {
        let rsn = fig2();
        let plan = select_mux_hardening(&rsn, 0, HardeningProfile::unhardened());
        assert!(plan.chosen.is_empty());
        assert_eq!(plan.ranked.len(), 1);
    }

    #[test]
    fn harmless_muxes_are_not_chosen() {
        // A chain has no muxes at all; the plan is empty.
        let rsn = chain(3, 2);
        let plan = select_mux_hardening(&rsn, 8, HardeningProfile::unhardened());
        assert!(plan.ranked.is_empty());
        assert!(plan.chosen.is_empty());
    }

    #[test]
    fn ranking_is_deterministic_and_sorted() {
        let soc = parse_soc("SocName t\n1 0 0 0 2 : 4 4\n2 0 0 0 1 : 4\n").expect("parse");
        let rsn = generate(&soc).expect("generate");
        let a = select_mux_hardening(&rsn, 3, HardeningProfile::unhardened());
        let b = select_mux_hardening(&rsn, 3, HardeningProfile::unhardened());
        assert_eq!(a, b);
        for w in a.ranked.windows(2) {
            assert!(w[0].1 >= w[1].1, "ranked must be sorted by gain");
        }
    }

    #[test]
    fn hardening_chosen_muxes_improves_metric_by_the_predicted_gain() {
        // Rebuild the SIB network with the chosen muxes hardened and check
        // the weighted-average metric improves by exactly the summed gain
        // (gains are additive: hardening only masks that mux's faults).
        let soc = parse_soc("SocName t\n1 0 0 0 2 : 4 4\n2 0 0 0 1 : 4\n").expect("parse");
        let rsn = generate(&soc).expect("generate");
        let profile = HardeningProfile::unhardened();
        let plan = select_mux_hardening(&rsn, 2, profile);
        assert!(!plan.chosen.is_empty());

        let mut b = rsn.clone().into_builder();
        apply_mux_hardening(&mut b, &plan.chosen);
        let hardened = b.finish().expect("rebuild");

        let before = analyze(&rsn, profile);
        let after = analyze(&hardened, profile);
        let predicted = plan.chosen_gain() / before.total_weight as f64;
        let actual = after.avg_segments - before.avg_segments;
        assert!(
            (actual - predicted).abs() < 1e-9,
            "predicted {predicted}, actual {actual}"
        );
    }

    #[test]
    fn full_budget_matches_hardening_everything() {
        let rsn = fig2();
        let profile = HardeningProfile::unhardened();
        let plan = select_mux_hardening(&rsn, usize::MAX, profile);

        let mut b = rsn.clone().into_builder();
        apply_mux_hardening(&mut b, &plan.chosen);
        let selective = b.finish().expect("rebuild");

        let mut b = rsn.clone().into_builder();
        let all: Vec<NodeId> = rsn.muxes().collect();
        apply_mux_hardening(&mut b, &all);
        let full = b.finish().expect("rebuild");

        assert_eq!(analyze(&selective, profile), analyze(&full, profile));
    }
}
