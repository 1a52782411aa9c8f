//! Fault diagnosis: locating a stuck-at fault from observed access
//! behavior.
//!
//! The paper motivates fault-tolerant RSNs with post-silicon debug and
//! diagnosis; this module provides the classic *fault dictionary*
//! machinery on top of the accessibility engine:
//!
//! * [`Signature`] — the observable behavior of a (possibly faulty)
//!   network under a fixed probe schedule: which segments can be read and
//!   written correctly from reset.
//! * [`FaultDictionary`] — the predicted signature of every fault in the
//!   collapsed universe.
//! * [`FaultDictionary::diagnose`] — the faults consistent with an
//!   observed signature (the diagnosis candidate set); physical failure
//!   analysis narrows the rest.
//!
//! Equivalent faults (identical signatures) are grouped — stuck-at fault
//! equivalence classes in the diagnosis literature.

use std::collections::HashMap;

use rsn_core::{NodeId, Rsn};

use crate::effect::{effect_of, FaultEffect};
use crate::engine::{AccessEngine, LANES};
use crate::fault::{fault_universe, Fault};
use crate::metric::HardeningProfile;
use crate::sweep::run_stealing;

/// Observable behavior under the probe schedule: per-segment access
/// success, in segment arena order.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Signature {
    bits: Vec<bool>,
}

impl Signature {
    /// Builds a signature from per-segment verdicts in
    /// [`Rsn::segments`] order.
    pub fn new(bits: Vec<bool>) -> Self {
        Signature { bits }
    }

    /// The predicted signature of a fault: the engine's per-segment
    /// accessibility. [`FaultDictionary::build`] batch-evaluates the whole
    /// universe instead.
    pub fn predicted(rsn: &Rsn, fault: &Fault, profile: HardeningProfile) -> Self {
        let effect = effect_of(rsn, fault, profile);
        if effect.is_benign() {
            return Signature::fault_free(rsn);
        }
        let engine = AccessEngine::new(rsn);
        let acc = engine.accessibility(&effect, &mut engine.scratch());
        Signature {
            bits: rsn.segments().map(|s| acc.accessible[s.index()]).collect(),
        }
    }

    /// The fault-free signature (everything accessible).
    pub fn fault_free(rsn: &Rsn) -> Self {
        Signature {
            bits: vec![true; rsn.segments().count()],
        }
    }

    /// Number of inaccessible segments in the signature.
    pub fn failures(&self) -> usize {
        self.bits.iter().filter(|&&b| !b).count()
    }

    /// Per-segment verdicts.
    pub fn as_bits(&self) -> &[bool] {
        &self.bits
    }
}

/// A precomputed fault dictionary of a network.
#[derive(Debug, Clone)]
pub struct FaultDictionary {
    /// Segment order of the signatures.
    segments: Vec<NodeId>,
    /// Signature → equivalence class of faults predicting it.
    classes: HashMap<Signature, Vec<Fault>>,
}

impl FaultDictionary {
    /// Builds the dictionary over the full collapsed fault universe.
    ///
    /// # Example
    ///
    /// ```
    /// use rsn_core::examples::fig2;
    /// use rsn_fault::diagnose::FaultDictionary;
    /// use rsn_fault::HardeningProfile;
    ///
    /// let rsn = fig2();
    /// let dict = FaultDictionary::build(&rsn, HardeningProfile::unhardened());
    /// assert!(dict.class_count() > 1);
    /// ```
    pub fn build(rsn: &Rsn, profile: HardeningProfile) -> Self {
        let engine = AccessEngine::new(rsn);
        let faults = fault_universe(rsn);
        let threads = rsn_budget::default_threads().min(16);
        // Predict signatures with the shared work-stealing scheduler, one
        // bit-parallel pass per chunk of faults, then group serially in
        // fault order so each class lists its members deterministically.
        let segments: Vec<NodeId> = rsn.segments().collect();
        let signatures = run_stealing(
            faults.len(),
            threads,
            LANES,
            || engine.scratch(),
            |scratch, chunk, out| {
                let effects: Vec<FaultEffect> =
                    chunk.map(|i| effect_of(rsn, &faults[i], profile)).collect();
                let faulty: Vec<&FaultEffect> = effects.iter().filter(|e| !e.is_benign()).collect();
                let mut accs = engine.accessibility_batch(&faulty, scratch).iter();
                out.extend(effects.iter().map(|e| {
                    if e.is_benign() {
                        Signature {
                            bits: vec![true; segments.len()],
                        }
                    } else {
                        let acc = accs.next().expect("one verdict per faulty effect");
                        Signature {
                            bits: segments.iter().map(|s| acc.accessible[s.index()]).collect(),
                        }
                    }
                }));
            },
        );
        let mut classes: HashMap<Signature, Vec<Fault>> = HashMap::new();
        for (fault, sig) in faults.into_iter().zip(signatures) {
            classes.entry(sig).or_default().push(fault);
        }
        FaultDictionary { segments, classes }
    }

    /// Number of distinct signature classes (diagnostic resolution).
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// The segment order used by the signatures.
    pub fn segments(&self) -> &[NodeId] {
        &self.segments
    }

    /// The faults whose predicted signature matches the observation
    /// exactly (empty if the observation matches no single stuck-at
    /// fault — e.g. multiple faults or a modeling gap).
    pub fn diagnose(&self, observed: &Signature) -> &[Fault] {
        self.classes.get(observed).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Diagnostic resolution report: for each class, its size. A class of
    /// size 1 pinpoints the fault; larger classes need physical failure
    /// analysis to discriminate.
    pub fn resolution_histogram(&self) -> Vec<usize> {
        let mut sizes: Vec<usize> = self.classes.values().map(Vec::len).collect();
        sizes.sort_unstable();
        sizes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultSite;
    use rsn_core::examples::{chain, fig2};
    use rsn_itc02::parse_soc;
    use rsn_sib::generate;

    #[test]
    fn dictionary_separates_structurally_distinct_faults() {
        let rsn = fig2();
        let dict = FaultDictionary::build(&rsn, HardeningProfile::unhardened());
        // At least: fault-free-like (benign), kill-all, kill-B, kill-C.
        assert!(dict.class_count() >= 4, "classes: {}", dict.class_count());
    }

    #[test]
    fn diagnosis_returns_the_injected_fault_class() {
        let rsn = fig2();
        let profile = HardeningProfile::unhardened();
        let dict = FaultDictionary::build(&rsn, profile);
        let b = rsn.find("B").expect("B");
        let fault = Fault {
            site: FaultSite::SegmentData(b),
            value: false,
            weight: 2,
        };
        let observed = Signature::predicted(&rsn, &fault, profile);
        let candidates = dict.diagnose(&observed);
        assert!(candidates.contains(&fault));
        // Every candidate must predict the same observation.
        for c in candidates {
            assert_eq!(Signature::predicted(&rsn, c, profile), observed);
        }
    }

    #[test]
    fn fault_free_signature_maps_to_benign_class() {
        let rsn = fig2();
        let profile = HardeningProfile::unhardened();
        let dict = FaultDictionary::build(&rsn, profile);
        let observed = Signature::fault_free(&rsn);
        let candidates = dict.diagnose(&observed);
        assert!(!candidates.is_empty(), "benign faults exist (select-sa1)");
        for c in candidates {
            let sig = Signature::predicted(&rsn, c, profile);
            assert_eq!(sig.failures(), 0);
        }
    }

    #[test]
    fn chain_has_coarse_resolution() {
        // In a chain, every data fault kills everything: one big class.
        let rsn = chain(4, 2);
        let dict = FaultDictionary::build(&rsn, HardeningProfile::unhardened());
        let histogram = dict.resolution_histogram();
        assert!(histogram.last().copied().expect("nonempty") >= 8);
    }

    #[test]
    fn sib_network_resolution_improves_with_structure() {
        // Subtree faults produce distinct signatures per module.
        let soc = parse_soc("SocName d\n1 0 0 0 2 : 3 3\n2 0 0 0 2 : 3 3\n").expect("parse");
        let rsn = generate(&soc).expect("generate");
        let dict = FaultDictionary::build(&rsn, HardeningProfile::unhardened());
        assert!(dict.class_count() >= 6, "classes: {}", dict.class_count());
        // The two modules' chain faults are distinguishable.
        let l1 = rsn.find("m1.c0.seg").expect("leaf");
        let l2 = rsn.find("m2.c0.seg").expect("leaf");
        let p = HardeningProfile::unhardened();
        let f1 = Fault {
            site: FaultSite::SegmentData(l1),
            value: false,
            weight: 2,
        };
        let f2 = Fault {
            site: FaultSite::SegmentData(l2),
            value: false,
            weight: 2,
        };
        assert_ne!(
            Signature::predicted(&rsn, &f1, p),
            Signature::predicted(&rsn, &f2, p)
        );
    }

    #[test]
    fn unknown_observation_yields_no_candidates() {
        let rsn = fig2();
        let dict = FaultDictionary::build(&rsn, HardeningProfile::unhardened());
        // A physically impossible pattern for single faults in fig2: only
        // A inaccessible (A is on every path, so losing A loses D too).
        let weird = Signature::new(vec![false, true, true, true]);
        assert!(dict.diagnose(&weird).is_empty());
    }
}
