//! Property-based tests for the power-tree substrate.

use proptest::prelude::*;
use so_powertrace::PowerTrace;
use so_powertree::{Assignment, Level, NodeAggregates, NodeId, PowerTopology};

fn small_topology() -> PowerTopology {
    PowerTopology::builder()
        .suites(1)
        .msbs_per_suite(2)
        .sbs_per_msb(2)
        .rpps_per_sb(2)
        .racks_per_rpp(2)
        .rack_capacity(4)
        .rack_budget_watts(1_000.0)
        .build()
        .expect("valid shape")
}

fn instance_traces(n: usize, len: usize) -> impl Strategy<Value = Vec<PowerTrace>> {
    prop::collection::vec(prop::collection::vec(0.0f64..100.0, len..=len), n..=n).prop_map(|vs| {
        vs.into_iter()
            .map(|v| PowerTrace::new(v, 10).expect("valid samples"))
            .collect()
    })
}

/// Settles pending `(rack, column)` writes: column-restricted when
/// `by_column`, else whole-row refreshes of every pending rack.
fn settle(
    topo: &PowerTopology,
    assignment: &Assignment,
    rows: &[Vec<f64>],
    agg: &mut NodeAggregates,
    pending: &mut Vec<(NodeId, usize)>,
    by_column: bool,
) {
    pending.sort_unstable();
    pending.dedup();
    let members = |rack: NodeId| {
        (0..rows.len())
            .filter(move |&i| assignment.rack_of(i).unwrap() == rack)
            .map(|i| rows[i].as_slice())
    };
    if by_column {
        for &(rack, column) in pending.iter() {
            agg.refresh_rack_columns(topo, rack, &[column], members(rack))
                .unwrap();
        }
        agg.refresh_ancestor_columns(topo, pending).unwrap();
    } else {
        let mut racks: Vec<NodeId> = pending.iter().map(|&(rack, _)| rack).collect();
        racks.dedup();
        for &rack in &racks {
            agg.refresh_rack(topo, rack, members(rack)).unwrap();
        }
        agg.refresh_ancestors(topo, &racks).unwrap();
    }
    pending.clear();
}

proptest! {
    /// Any interleaving of sample writes settled by column-restricted and
    /// whole-row refreshes leaves every node's trace and cached peak
    /// bit-identical to a from-scratch `compute`, and every cached peak
    /// equal to a rescan. Written values come from a coarse lattice that
    /// includes zero, so ties with the peak are frequent.
    #[test]
    fn column_and_row_refreshes_match_compute(
        traces in instance_traces(16, 6),
        writes in prop::collection::vec((0usize..16, 0usize..6, 0u32..9, 0u32..3), 1..40),
    ) {
        let topo = small_topology();
        let assignment = Assignment::round_robin(&topo, 16).unwrap();
        let mut rows: Vec<Vec<f64>> = traces.iter().map(|t| t.samples().to_vec()).collect();
        let mut agg = NodeAggregates::compute(&topo, &assignment, &traces).unwrap();
        let mut pending = Vec::new();
        for &(i, column, level, settle_mode) in &writes {
            rows[i][column] = f64::from(level) * 12.5;
            pending.push((assignment.rack_of(i).unwrap(), column));
            match settle_mode {
                0 => settle(&topo, &assignment, &rows, &mut agg, &mut pending, true),
                1 => settle(&topo, &assignment, &rows, &mut agg, &mut pending, false),
                _ => {}
            }
        }
        settle(&topo, &assignment, &rows, &mut agg, &mut pending, true);

        let now: Vec<PowerTrace> = rows
            .iter()
            .map(|r| PowerTrace::new(r.clone(), 10).unwrap())
            .collect();
        let scratch = NodeAggregates::compute(&topo, &assignment, &now).unwrap();
        for id in topo.nodes().iter().map(|n| n.id()) {
            let got = agg.trace(id).unwrap();
            let want = scratch.trace(id).unwrap();
            for (g, w) in got.samples().iter().zip(want.samples()) {
                prop_assert_eq!(g.to_bits(), w.to_bits());
            }
            prop_assert_eq!(agg.peak(id).unwrap().to_bits(), got.peak().to_bits());
            prop_assert_eq!(agg.peak(id).unwrap().to_bits(), scratch.peak(id).unwrap().to_bits());
        }
    }

    /// Root aggregate equals the element-wise sum of all instance traces,
    /// regardless of the assignment.
    #[test]
    fn root_aggregate_is_assignment_invariant(
        traces in instance_traces(16, 8),
        seed in 0usize..16,
    ) {
        let topo = small_topology();
        let racks = topo.racks();
        // Two different assignments over the same instances.
        let a1 = Assignment::round_robin(&topo, 16).unwrap();
        let rack_of: Vec<_> = (0..16).map(|i| racks[(i + seed) % racks.len()]).collect();
        let a2 = Assignment::new(rack_of, &topo).unwrap();

        let agg1 = NodeAggregates::compute(&topo, &a1, &traces).unwrap();
        let agg2 = NodeAggregates::compute(&topo, &a2, &traces).unwrap();
        let r1 = agg1.trace(topo.root()).unwrap();
        let r2 = agg2.trace(topo.root()).unwrap();
        for i in 0..r1.len() {
            prop_assert!((r1.samples()[i] - r2.samples()[i]).abs() < 1e-6);
        }
    }

    /// At every level, the sum of node aggregates equals the root aggregate
    /// (power is conserved down the tree).
    #[test]
    fn per_level_aggregates_conserve_power(traces in instance_traces(16, 6)) {
        let topo = small_topology();
        let a = Assignment::round_robin(&topo, 16).unwrap();
        let agg = NodeAggregates::compute(&topo, &a, &traces).unwrap();
        let root = agg.trace(topo.root()).unwrap().clone();
        for level in [Level::Suite, Level::Msb, Level::Sb, Level::Rpp, Level::Rack] {
            let level_traces: Vec<_> = topo
                .nodes_at_level(level)
                .iter()
                .map(|&id| agg.trace(id).unwrap())
                .collect();
            let sum = PowerTrace::sum_of(level_traces.into_iter()).unwrap();
            for i in 0..root.len() {
                prop_assert!((root.samples()[i] - sum.samples()[i]).abs() < 1e-6);
            }
        }
    }

    /// Sum of peaks is monotone in depth: aggregating children can only
    /// cancel peaks, so each level's sum of peaks is at least its parent
    /// level's (fragmentation is worst at the leaves).
    #[test]
    fn sum_of_peaks_grows_with_depth(traces in instance_traces(16, 6)) {
        let topo = small_topology();
        let a = Assignment::round_robin(&topo, 16).unwrap();
        let agg = NodeAggregates::compute(&topo, &a, &traces).unwrap();
        let mut prev = 0.0f64;
        for level in Level::ALL {
            let sp = agg.sum_of_peaks(&topo, level);
            prop_assert!(sp + 1e-6 >= prev, "level {level} sum {sp} below parent {prev}");
            prev = sp;
        }
    }

    /// instances_under(root) is always the full instance set.
    #[test]
    fn instances_under_root_is_everything(n in 1usize..=60) {
        let topo = small_topology();
        let a = Assignment::round_robin(&topo, n).unwrap();
        let under = a.instances_under(&topo, topo.root()).unwrap();
        prop_assert_eq!(under, (0..n).collect::<Vec<_>>());
    }

    /// Swapping two instances never changes per-rack instance counts.
    #[test]
    fn swap_preserves_rack_counts(i in 0usize..16, j in 0usize..16) {
        let topo = small_topology();
        let mut a = Assignment::round_robin(&topo, 16).unwrap();
        let counts_before: Vec<usize> =
            a.by_rack().values().map(|v| v.len()).collect();
        a.swap(i, j).unwrap();
        let counts_after: Vec<usize> =
            a.by_rack().values().map(|v| v.len()).collect();
        prop_assert_eq!(counts_before, counts_after);
    }
}
