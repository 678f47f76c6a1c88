//! Property tests for the fused offline admission scan: for any fleet,
//! candidate and budget vector, [`admission_decisions`] must return the
//! decisions of the materializing [`reference_admission_decisions`] in the
//! same order, with every float field equal bit for bit.
//!
//! Budgets are tightened around each node's current peak, so the exact
//! O(1) ancestor bound is often inconclusive and the fused path has to
//! fall back to its rescan — and that rescan both admits and refuses.

use proptest::prelude::*;
use so_core::admission_decisions;
use so_oracles::online::reference_admission_decisions;
use so_powertrace::PowerTrace;
use so_powertree::{Assignment, NodeAggregates, PowerTopology};

const STEP: u32 = 60;
const LEN: usize = 7;

/// 8 racks × 3 slots under 2 SBs: 17 nodes.
fn topo() -> PowerTopology {
    PowerTopology::builder()
        .suites(1)
        .msbs_per_suite(1)
        .sbs_per_msb(2)
        .rpps_per_sb(2)
        .racks_per_rpp(2)
        .rack_capacity(3)
        .rack_budget_watts(400.0)
        .build()
        .unwrap()
}

fn trace() -> impl Strategy<Value = PowerTrace> {
    prop::collection::vec(prop_oneof![Just(0.0), 0.0f64..120.0], LEN..=LEN)
        .prop_map(|v| PowerTrace::new(v, STEP).expect("valid samples"))
}

/// Instances with a rack pick each; picks onto a full rack are dropped,
/// so some racks end up full and some empty.
fn fleet() -> impl Strategy<Value = Vec<(PowerTrace, usize)>> {
    prop::collection::vec((trace(), 0usize..8), 0..=24)
}

proptest! {
    #[test]
    fn fused_admission_matches_the_reference(
        picks in fleet(),
        candidate in trace(),
        slack in prop::collection::vec(0.0f64..1.3, 17..=17),
        tighten in 0u8..4,
    ) {
        let topology = topo();
        let racks = topology.racks();
        let mut load = vec![0usize; racks.len()];
        let (mut traces, mut rack_of) = (Vec::new(), Vec::new());
        for (t, r) in picks {
            if load[r] < topology.rack_capacity() {
                load[r] += 1;
                traces.push(t);
                rack_of.push(racks[r]);
            }
        }
        prop_assume!(!traces.is_empty());
        let assignment = Assignment::new(rack_of, &topology).unwrap();
        let aggregates = NodeAggregates::compute(&topology, &assignment, &traces).unwrap();

        // Node budgets: the provisioned ones, or (most cases) the node's
        // current peak plus a random fraction of the candidate's peak.
        let candidate_peak = candidate.peak();
        prop_assert_eq!(slack.len(), topology.len());
        let budgets: Vec<f64> = topology
            .nodes()
            .iter()
            .zip(&slack)
            .map(|(node, &s)| {
                if tighten == 0 {
                    node.budget_watts()
                } else {
                    aggregates.peak(node.id()).unwrap() + s * candidate_peak
                }
            })
            .collect();

        let want = reference_admission_decisions(
            &topology, &assignment, &aggregates, &budgets, &candidate,
        )
        .unwrap();
        let got = admission_decisions(&topology, &assignment, &aggregates, &budgets, &candidate)
            .unwrap();
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(g.rack, w.rack);
            prop_assert_eq!(g.fits, w.fits);
            prop_assert_eq!(g.new_peak_watts.to_bits(), w.new_peak_watts.to_bits());
            prop_assert_eq!(
                g.peak_increase_watts.to_bits(),
                w.peak_increase_watts.to_bits()
            );
            prop_assert_eq!(g.asynchrony.to_bits(), w.asynchrony.to_bits());
        }
    }
}

#[test]
fn off_grid_candidate_fails_like_the_reference() {
    let topology = topo();
    let traces = vec![PowerTrace::new(vec![1.0; LEN], STEP).unwrap()];
    let assignment = Assignment::new(vec![topology.racks()[0]], &topology).unwrap();
    let aggregates = NodeAggregates::compute(&topology, &assignment, &traces).unwrap();
    let budgets: Vec<f64> = topology.nodes().iter().map(|n| n.budget_watts()).collect();
    for candidate in [
        PowerTrace::new(vec![1.0; LEN - 1], STEP).unwrap(),
        PowerTrace::new(vec![1.0; LEN], STEP * 2).unwrap(),
    ] {
        let want = reference_admission_decisions(
            &topology,
            &assignment,
            &aggregates,
            &budgets,
            &candidate,
        )
        .unwrap_err();
        let got = admission_decisions(&topology, &assignment, &aggregates, &budgets, &candidate)
            .unwrap_err();
        assert_eq!(got, want);
    }
}
