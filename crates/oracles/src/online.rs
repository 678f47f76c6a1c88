//! Online oracles: the resident [`OnlineFleet`] engine diffed against
//! offline recomputes of everything it claims.
//!
//! | oracle | sides | agreement |
//! |---|---|---|
//! | `resident_aggregates_match_offline_recompute` | engine aggregates after an event stream vs [`NodeAggregates::compute`] on the final live fleet | bit-identical samples |
//! | `resident_peaks_match_offline_recompute` | cached per-node peaks vs the recomputed aggregates' peaks | bit-identical |
//! | `rack_asynchrony_matches_materialized_score` | fused [`OnlineFleet::rack_asynchrony`] vs [`asynchrony_score`] over materialized member traces | bit-identical |
//! | `journal_commit_matches_offline_choice` | each journaled commit vs [`offline_choose`] replayed against the reconstructed pre-state | same rack |
//! | `journal_retirement_names_the_hosting_rack` | journal replay occupancy at each `Retired`/`Moved` event | exact |
//! | `journal_replay_reconstructs_the_live_set` | final replayed occupancy vs [`OnlineFleet::live_view`] | exact |
//! | `rejection_is_agreed_by_offline_replay` | an over-budget probe arrival vs the offline replay | both reject |
//! | `decisions_match_admission_decisions` | fused [`OnlineFleet::decisions`] and fused [`admission_decisions`] vs the materializing [`reference_admission_decisions`] | bit-identical fields and sort order |
//! | `arrive_then_retire_is_identity` | aggregate bits before vs after an arrive∘retire round trip | bit-identical |
//! | `retiring_everything_zeroes_aggregates` | every node trace after full retirement | exactly `0.0` |
//! | `counters_account_for_every_event` | engine counters vs journal arithmetic | exact |
//! | `fragmentation_is_bounded` | per-level stranded watts vs headroom | `0 ≤ stranded ≤ headroom` |
//!
//! Everything except the two bounds checks is *exact*: the engine's
//! canonical path refresh and fused probes are documented to perform the
//! same float operations in the same order as the offline paths, so any
//! ULP of drift is a bug. [`check_resident_aggregates`],
//! [`check_commit_decision`] and [`check_leaf_decisions`] are exported so
//! mutation tests can feed deliberately broken states through the same
//! checkers the battery runs.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::Rng;
use so_core::{
    admission_decisions, asynchrony_score, offline_choose, pairwise_score, AdmissionDecision,
    CommitPolicy, CoreError, EventRecord, LeafDecision, OnlineConfig, OnlineFleet,
};
use so_powertrace::{PowerTrace, TimeGrid};
use so_powertree::{Assignment, NodeAggregates, NodeId, PowerTopology};

use crate::{Fixture, OracleError, OracleFamily, OracleReport};

const FAMILY: OracleFamily = OracleFamily::Online;

/// Cap on how many journaled commits are replayed offline per policy (the
/// replay recomputes the full pre-state per commit, so it is the one
/// super-linear oracle here; a deterministic stride keeps it bounded).
const MAX_COMMIT_REPLAYS: usize = 48;

/// Runs every online oracle over the fixture: one engine per commit
/// policy is driven through the same batched arrival/retirement stream
/// (retirement draws come from `rng`, so distinct battery seeds exercise
/// distinct churn), then each engine's resident state, journal, and fused
/// decisions are held against offline recomputes.
///
/// # Errors
///
/// Returns [`OracleError`] when an oracle cannot be evaluated at all;
/// failed evaluations are recorded in `report` instead.
pub fn run(
    fixture: &Fixture,
    rng: &mut StdRng,
    report: &mut OracleReport,
) -> Result<(), OracleError> {
    let traces = fixture.traces();
    let grid = traces[0].grid();
    // Generous budgets: every arrival is admissible on power (capacity can
    // still bind), so the stream commits deeply; the rejection oracle
    // probes the over-budget path explicitly.
    let cap = traces.iter().map(PowerTrace::peak).sum::<f64>() * 2.0 + 100.0;
    let policies = [
        (CommitPolicy::BestAsynchrony, 2usize),
        (CommitPolicy::FirstFit, 0),
        (CommitPolicy::WorstFit, 0),
        (CommitPolicy::Sampling { probes: 3 }, 2),
    ];
    for (policy, repair_budget) in policies {
        let config = OnlineConfig {
            policy,
            repair_budget,
            min_gain: 0.0,
            sample_salt: fixture.seed,
            ..OnlineConfig::default()
        };
        let mut engine = OnlineFleet::new(fixture.topology.clone(), grid, config)
            .with_budgets(vec![cap; fixture.topology.len()])
            .map_err(OracleError::Core)?;
        let chunk = traces.len().div_ceil(3).max(1);
        for batch in traces.chunks(chunk) {
            let retires: Vec<u64> = (0..batch.len() / 4).map(|_| rng.gen()).collect();
            engine.apply(batch, &retires).map_err(OracleError::Core)?;
        }
        state_matches_offline(&engine, report)?;
        asynchrony_matches_materialized(&engine, report)?;
        journal_replays_offline(&engine, report)?;
        rejection_is_agreed(&engine, cap, report)?;
        counters_account(&engine, report);
        fragmentation_is_bounded(&engine, &traces[0], report)?;
        if policy == CommitPolicy::BestAsynchrony {
            decisions_match_admission(&engine, report)?;
            arrive_retire_identity(&engine, &traces[0], report)?;
        }
        retire_all_zeroes(engine, report)?;
    }
    Ok(())
}

/// Diffs a claimed [`NodeAggregates`] against a from-scratch
/// [`NodeAggregates::compute`] of `(traces, racks)` — every node's samples
/// and peak must agree bit-for-bit. Exported so mutation tests can present
/// deliberately stale aggregates to the same checker the battery runs.
///
/// # Errors
///
/// Propagates assignment/aggregation errors (the *claimed* side is only
/// read, never validated).
pub fn check_resident_aggregates(
    topology: &PowerTopology,
    grid: TimeGrid,
    traces: &[PowerTrace],
    racks: &[NodeId],
    claimed: &NodeAggregates,
    report: &mut OracleReport,
) -> Result<(), OracleError> {
    let offline = if traces.is_empty() {
        NodeAggregates::zeros(topology, grid)
    } else {
        let assignment = Assignment::new(racks.to_vec(), topology)?;
        NodeAggregates::compute(topology, &assignment, traces)?
    };
    for node in topology.nodes().iter().map(|n| n.id()) {
        let got = claimed.trace(node)?.samples();
        let want = offline.trace(node)?.samples();
        report.check(
            FAMILY,
            "resident_aggregates_match_offline_recompute",
            got.len() == want.len()
                && got
                    .iter()
                    .zip(want)
                    .all(|(g, w)| g.to_bits() == w.to_bits()),
            || format!("node {node}: resident aggregate drifts from the offline recompute"),
        );
        report.check_exact(
            FAMILY,
            "resident_peaks_match_offline_recompute",
            claimed.peak(node)?,
            offline.peak(node)?,
        );
    }
    Ok(())
}

/// Replays one commit decision offline — a from-scratch
/// [`NodeAggregates::compute`] of the pre-state, then [`offline_choose`]
/// with the **materializing** arithmetic — and checks the claimed outcome
/// (`Some(rack)` for a commit, `None` for a rejection). Exported so
/// mutation tests can claim wrong-leaf commits against the same checker.
///
/// # Errors
///
/// Propagates assignment/aggregation/replay errors.
#[allow(clippy::too_many_arguments)]
pub fn check_commit_decision(
    topology: &PowerTopology,
    budgets: &[f64],
    grid: TimeGrid,
    pre_traces: &[PowerTrace],
    pre_racks: &[NodeId],
    candidate: &PowerTrace,
    policy: &CommitPolicy,
    sample_salt: u64,
    ordinal: u64,
    claimed: Option<NodeId>,
    report: &mut OracleReport,
) -> Result<(), OracleError> {
    let aggregates = if pre_traces.is_empty() {
        NodeAggregates::zeros(topology, grid)
    } else {
        let assignment = Assignment::new(pre_racks.to_vec(), topology)?;
        NodeAggregates::compute(topology, &assignment, pre_traces)?
    };
    let mut occupancy: BTreeMap<NodeId, usize> = BTreeMap::new();
    for &rack in pre_racks {
        *occupancy.entry(rack).or_insert(0) += 1;
    }
    let want = offline_choose(
        topology,
        budgets,
        &aggregates,
        &occupancy,
        candidate,
        policy,
        sample_salt,
        ordinal,
    )
    .map_err(OracleError::Core)?;
    report.check(
        FAMILY,
        "journal_commit_matches_offline_choice",
        want == claimed,
        || {
            format!(
                "policy {}: offline replay of arrival {ordinal} picks {want:?}, journal claims {claimed:?}",
                policy.name()
            )
        },
    );
    Ok(())
}

/// The engine's resident aggregates after the stream vs a from-scratch
/// recompute of its own live view.
fn state_matches_offline(
    engine: &OnlineFleet,
    report: &mut OracleReport,
) -> Result<(), OracleError> {
    let (traces, _, slots) = engine.live_view().map_err(OracleError::Core)?;
    let racks: Vec<NodeId> = slots
        .iter()
        .map(|&s| engine.rack_of(s).expect("live slot has a rack"))
        .collect();
    check_resident_aggregates(
        engine.topology(),
        engine.grid(),
        &traces,
        &racks,
        engine.aggregates(),
        report,
    )
}

/// Fused per-rack asynchrony vs [`asynchrony_score`] over the
/// materialized member traces.
fn asynchrony_matches_materialized(
    engine: &OnlineFleet,
    report: &mut OracleReport,
) -> Result<(), OracleError> {
    let (traces, assignment, _) = engine.live_view().map_err(OracleError::Core)?;
    if traces.is_empty() {
        return Ok(());
    }
    for (rack, members) in assignment.by_rack() {
        if members.is_empty() {
            continue;
        }
        let want =
            asynchrony_score(members.iter().map(|&i| &traces[i])).map_err(OracleError::Core)?;
        let got = engine.rack_asynchrony(rack).map_err(OracleError::Core)?;
        report.check_exact(
            FAMILY,
            "rack_asynchrony_matches_materialized_score",
            got,
            want,
        );
    }
    Ok(())
}

/// Walks the journal front to back, maintaining an independent slot→rack
/// occupancy: a strided sample of commits is replayed through
/// [`check_commit_decision`] against the reconstructed pre-state, every
/// retirement/move must name the rack the replay says the slot lives on,
/// and the final occupancy must reproduce the engine's live view.
pub(crate) fn journal_replays_offline(
    engine: &OnlineFleet,
    report: &mut OracleReport,
) -> Result<(), OracleError> {
    let commits = engine
        .journal()
        .iter()
        .filter(|e| matches!(e, EventRecord::Committed { .. }))
        .count();
    let stride = commits.div_ceil(MAX_COMMIT_REPLAYS).max(1);
    let mut live: BTreeMap<usize, NodeId> = BTreeMap::new();
    let mut commit_idx = 0usize;
    for event in engine.journal() {
        match *event {
            EventRecord::Committed {
                slot,
                ordinal,
                rack,
            } => {
                if commit_idx % stride == 0 {
                    let (pre_traces, pre_racks) = materialize(engine, &live)?;
                    let candidate =
                        PowerTrace::new(engine.row(slot).to_vec(), engine.grid().step_minutes())?;
                    check_commit_decision(
                        engine.topology(),
                        engine.budgets(),
                        engine.grid(),
                        &pre_traces,
                        &pre_racks,
                        &candidate,
                        &engine.config().policy,
                        engine.config().sample_salt,
                        ordinal,
                        Some(rack),
                        report,
                    )?;
                }
                commit_idx += 1;
                live.insert(slot, rack);
            }
            // Rejected arrivals leave no trace row behind; the rejection
            // path is replayed by `rejection_is_agreed` instead.
            EventRecord::Rejected { .. } => {}
            EventRecord::Retired { slot, rack } => {
                let was = live.remove(&slot);
                report.check(
                    FAMILY,
                    "journal_retirement_names_the_hosting_rack",
                    was == Some(rack),
                    || format!("slot {slot}: journal retires from {rack}, replay hosts {was:?}"),
                );
            }
            EventRecord::Moved { slot, from, to } => {
                let was = live.insert(slot, to);
                report.check(
                    FAMILY,
                    "journal_retirement_names_the_hosting_rack",
                    was == Some(from),
                    || format!("slot {slot}: journal moves from {from}, replay hosts {was:?}"),
                );
            }
            // A compaction checkpoint pins one live slot directly — the
            // exact occupancy the discarded journal prefix had produced
            // — so replay inserts it without a commit decision to check.
            EventRecord::Checkpoint { slot, rack } => {
                live.insert(slot, rack);
            }
        }
    }
    let (_, assignment, slots) = engine.live_view().map_err(OracleError::Core)?;
    let replayed: Vec<usize> = live.keys().copied().collect();
    let racks_agree = slots
        .iter()
        .enumerate()
        .all(|(i, &s)| assignment.rack_of(i).ok() == live.get(&s).copied());
    report.check(
        FAMILY,
        "journal_replay_reconstructs_the_live_set",
        replayed == slots && racks_agree,
        || {
            format!(
                "journal replay yields {} live slots, engine reports {}",
                replayed.len(),
                slots.len()
            )
        },
    );
    Ok(())
}

/// An arrival whose flat draw exceeds every budget must be rejected by
/// the engine *and* by the offline replay of the same decision.
fn rejection_is_agreed(
    engine: &OnlineFleet,
    cap: f64,
    report: &mut OracleReport,
) -> Result<(), OracleError> {
    let mut probe = engine.clone();
    let too_big = PowerTrace::new(
        vec![cap * 2.0; engine.grid().len()],
        engine.grid().step_minutes(),
    )?;
    let ordinal = probe.arrivals_seen();
    let outcome = probe.arrive(&too_big).map_err(OracleError::Core)?;
    report.check(
        FAMILY,
        "rejection_is_agreed_by_offline_replay",
        outcome.is_none(),
        || format!("engine admitted a {cap}-watt-over-budget arrival as slot {outcome:?}"),
    );
    let (pre_traces, _, slots) = engine.live_view().map_err(OracleError::Core)?;
    let pre_racks: Vec<NodeId> = slots
        .iter()
        .map(|&s| engine.rack_of(s).expect("live slot has a rack"))
        .collect();
    check_commit_decision(
        engine.topology(),
        engine.budgets(),
        engine.grid(),
        &pre_traces,
        &pre_racks,
        &too_big,
        &engine.config().policy,
        engine.config().sample_salt,
        ordinal,
        None,
        report,
    )
}

/// Fused [`OnlineFleet::decisions`] and [`admission_decisions`] vs the
/// materializing [`reference_admission_decisions`] over the same live
/// view, for the first live trace as the candidate (see
/// [`check_leaf_decisions`]).
fn decisions_match_admission(
    engine: &OnlineFleet,
    report: &mut OracleReport,
) -> Result<(), OracleError> {
    let (traces, _, _) = engine.live_view().map_err(OracleError::Core)?;
    let Some(candidate) = traces.first() else {
        return Ok(());
    };
    let online = engine.decisions(candidate).map_err(OracleError::Core)?;
    check_leaf_decisions(engine, candidate, &online, report)
}

/// The materializing admission scan both fused paths are held against:
/// every rack and every ancestor on its path pays a
/// `aggregate.try_add(candidate)` and a rescanned peak, the asynchrony is
/// [`pairwise_score`] over the materialized pair, and occupancy comes
/// from [`Assignment::by_rack`]. Same contract and sort order as
/// [`admission_decisions`]; kept here, apart from the library's fused
/// probe, so the check never compares that probe with itself.
///
/// # Errors
///
/// Propagates tree/trace errors.
pub fn reference_admission_decisions(
    topology: &PowerTopology,
    assignment: &Assignment,
    aggregates: &NodeAggregates,
    budgets: &[f64],
    candidate: &PowerTrace,
) -> Result<Vec<AdmissionDecision>, CoreError> {
    if budgets.len() != topology.len() {
        return Err(CoreError::Tree(
            so_powertree::TreeError::InstanceCountMismatch {
                assignment: topology.len(),
                traces: budgets.len(),
            },
        ));
    }
    let by_rack = assignment.by_rack();
    let capacity = topology.rack_capacity();

    let mut decisions = Vec::with_capacity(topology.racks().len());
    for &rack in topology.racks() {
        let aggregate = aggregates.trace(rack).map_err(CoreError::Tree)?;
        let combined = aggregate.try_add(candidate)?;
        let new_peak = combined.peak();
        let old_peak = aggregate.peak();

        let has_slot = by_rack.get(&rack).map_or(0, |v| v.len()) < capacity;
        let mut path_ok = new_peak <= budgets[rack.index()];
        if path_ok {
            for ancestor in topology.ancestors(rack).map_err(CoreError::Tree)? {
                let anc_aggregate = aggregates.trace(ancestor).map_err(CoreError::Tree)?;
                let anc_peak = anc_aggregate.try_add(candidate)?.peak();
                if anc_peak > budgets[ancestor.index()] {
                    path_ok = false;
                    break;
                }
            }
        }

        let asynchrony = if old_peak > 0.0 {
            pairwise_score(aggregate, candidate)?
        } else {
            2.0
        };
        decisions.push(AdmissionDecision {
            rack,
            fits: has_slot && path_ok,
            new_peak_watts: new_peak,
            peak_increase_watts: new_peak - old_peak,
            asynchrony,
        });
    }
    decisions.sort_by(|a, b| {
        b.fits
            .cmp(&a.fits)
            .then(
                a.peak_increase_watts
                    .partial_cmp(&b.peak_increase_watts)
                    .expect("peaks are finite"),
            )
            .then(
                b.asynchrony
                    .partial_cmp(&a.asynchrony)
                    .expect("scores are finite"),
            )
    });
    Ok(decisions)
}

/// Holds `claimed` per-rack decisions for `candidate` against the
/// materializing [`reference_admission_decisions`] over `engine`'s live
/// view: `fits`, peaks, peak increases, and asynchrony must share every
/// bit. The library's fused [`admission_decisions`] over the same view is
/// held against the reference in the same evaluations, at the same
/// sorted position — so its sort order is pinned too.
///
/// # Errors
///
/// Propagates live-view and recompute failures.
pub fn check_leaf_decisions(
    engine: &OnlineFleet,
    candidate: &PowerTrace,
    claimed: &[LeafDecision],
    report: &mut OracleReport,
) -> Result<(), OracleError> {
    let (traces, assignment, _) = engine.live_view().map_err(OracleError::Core)?;
    if traces.is_empty() {
        return Ok(());
    }
    let aggregates = NodeAggregates::compute(engine.topology(), &assignment, &traces)?;
    let (topology, budgets) = (engine.topology(), engine.budgets());
    let reference =
        reference_admission_decisions(topology, &assignment, &aggregates, budgets, candidate)
            .map_err(OracleError::Core)?;
    let fused = admission_decisions(topology, &assignment, &aggregates, budgets, candidate)
        .map_err(OracleError::Core)?;
    for d in claimed {
        let Some(rank) = reference.iter().position(|o| o.rack == d.rack) else {
            report.check(FAMILY, "decisions_match_admission_decisions", false, || {
                format!("rack {}: no reference admission decision", d.rack)
            });
            continue;
        };
        let o = &reference[rank];
        let Some(f) = fused.get(rank) else {
            report.check(FAMILY, "decisions_match_admission_decisions", false, || {
                format!(
                    "rank {rank}: admission_decisions returned {} racks",
                    fused.len()
                )
            });
            continue;
        };
        report.check(
            FAMILY,
            "decisions_match_admission_decisions",
            d.fits == o.fits && f.rack == o.rack && f.fits == o.fits,
            || {
                format!(
                    "rack {}: online fits {} and admission_decisions rank {rank} (rack {}, fits {}) vs reference fits {}",
                    d.rack, d.fits, f.rack, f.fits, o.fits
                )
            },
        );
        for (field, online, admission, want) in [
            (
                "new_peak_watts",
                d.new_peak_watts,
                f.new_peak_watts,
                o.new_peak_watts,
            ),
            (
                "peak_increase_watts",
                d.peak_increase_watts,
                f.peak_increase_watts,
                o.peak_increase_watts,
            ),
            ("asynchrony", d.asynchrony, f.asynchrony, o.asynchrony),
        ] {
            report.check(
                FAMILY,
                "decisions_match_admission_decisions",
                online.to_bits() == want.to_bits() && admission.to_bits() == want.to_bits(),
                || {
                    format!(
                        "rack {} {field}: online {online} ({:#x}), admission_decisions {admission} ({:#x}), reference {want} ({:#x})",
                        d.rack,
                        online.to_bits(),
                        admission.to_bits(),
                        want.to_bits()
                    )
                },
            );
        }
    }
    Ok(())
}

/// Arrive-then-retire must leave every aggregate bit where it was: the
/// canonical path refresh rebuilds touched sums from members, so the
/// round trip is exact, not merely close.
fn arrive_retire_identity(
    engine: &OnlineFleet,
    candidate: &PowerTrace,
    report: &mut OracleReport,
) -> Result<(), OracleError> {
    let mut probe = engine.clone();
    let before = aggregate_bits(&probe);
    if let Some(slot) = probe.arrive(candidate).map_err(OracleError::Core)? {
        probe.retire(slot).map_err(OracleError::Core)?;
    }
    report.check(
        FAMILY,
        "arrive_then_retire_is_identity",
        aggregate_bits(&probe) == before,
        || "aggregate bits drift across an arrive/retire round trip".to_string(),
    );
    Ok(())
}

/// Retiring the whole fleet must return every node trace to exactly zero
/// — no residue from the churn that came before.
fn retire_all_zeroes(
    mut engine: OnlineFleet,
    report: &mut OracleReport,
) -> Result<(), OracleError> {
    for slot in engine.live_slots() {
        engine.retire(slot).map_err(OracleError::Core)?;
    }
    let clean = engine
        .topology()
        .nodes()
        .iter()
        .map(|n| n.id())
        .all(|node| {
            engine
                .aggregates()
                .trace(node)
                .map(|t| t.samples().iter().all(|v| v.to_bits() == 0.0f64.to_bits()))
                .unwrap_or(false)
        });
    report.check(
        FAMILY,
        "retiring_everything_zeroes_aggregates",
        clean && engine.live_len() == 0,
        || "aggregates keep non-zero bits after the whole fleet retired".to_string(),
    );
    Ok(())
}

/// Engine counters vs journal arithmetic: every arrival is either a
/// commit or a rejection, and the live count is commits minus
/// retirements.
fn counters_account(engine: &OnlineFleet, report: &mut OracleReport) {
    report.check(
        FAMILY,
        "counters_account_for_every_event",
        engine.committed() + engine.rejected() == engine.arrivals_seen()
            && engine.live_len() as u64 == engine.committed() - engine.retired(),
        || {
            format!(
                "committed {} + rejected {} != arrivals {} (live {}, retired {})",
                engine.committed(),
                engine.rejected(),
                engine.arrivals_seen(),
                engine.live_len(),
                engine.retired()
            )
        },
    );
}

/// Stranded power is a sub-quantity of headroom: `0 ≤ stranded ≤
/// headroom` and the ratio lives in `[0, 1]` at every level.
fn fragmentation_is_bounded(
    engine: &OnlineFleet,
    reference: &PowerTrace,
    report: &mut OracleReport,
) -> Result<(), OracleError> {
    for level in engine.fragmentation(reference).map_err(OracleError::Core)? {
        report.check(
            FAMILY,
            "fragmentation_is_bounded",
            level.stranded_watts >= 0.0
                && level.stranded_watts <= level.headroom_watts + 1e-9
                && (0.0..=1.0).contains(&level.ratio),
            || {
                format!(
                    "level {:?}: stranded {} of headroom {} (ratio {})",
                    level.level, level.stranded_watts, level.headroom_watts, level.ratio
                )
            },
        );
    }
    Ok(())
}

/// Materializes a replayed occupancy into `(traces, racks)` in ascending
/// slot order — the pre-state [`check_commit_decision`] consumes.
fn materialize(
    engine: &OnlineFleet,
    live: &BTreeMap<usize, NodeId>,
) -> Result<(Vec<PowerTrace>, Vec<NodeId>), OracleError> {
    let mut traces = Vec::with_capacity(live.len());
    let mut racks = Vec::with_capacity(live.len());
    for (&slot, &rack) in live {
        traces.push(PowerTrace::new(
            engine.row(slot).to_vec(),
            engine.grid().step_minutes(),
        )?);
        racks.push(rack);
    }
    Ok((traces, racks))
}

/// Every node trace's sample bits, in node order — the engine-state
/// digest the identity oracle compares.
fn aggregate_bits(engine: &OnlineFleet) -> Vec<u64> {
    engine
        .topology()
        .nodes()
        .iter()
        .map(|n| n.id())
        .flat_map(|node| {
            engine
                .aggregates()
                .trace(node)
                .expect("engine covers every node")
                .samples()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use so_workloads::DcScenario;

    #[test]
    fn online_oracles_agree_on_a_small_fixture() {
        let fixture = Fixture::generate(&DcScenario::dc1(), 30, 5).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let mut report = OracleReport::new();
        run(&fixture, &mut rng, &mut report).unwrap();
        assert!(report.is_clean(), "{:#?}", report.violations());
        assert!(report.evaluations(OracleFamily::Online) > 100);
    }

    #[test]
    fn online_oracles_are_deterministic() {
        let fixture = Fixture::generate(&DcScenario::dc3(), 24, 11).unwrap();
        let mut a = OracleReport::new();
        run(&fixture, &mut StdRng::seed_from_u64(11), &mut a).unwrap();
        let mut b = OracleReport::new();
        run(&fixture, &mut StdRng::seed_from_u64(11), &mut b).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn checkers_flag_a_corrupted_claim() {
        let fixture = Fixture::generate(&DcScenario::dc2(), 12, 3).unwrap();
        let traces = fixture.traces();
        let grid = traces[0].grid();
        let racks: Vec<NodeId> = (0..traces.len())
            .map(|i| fixture.assignment.rack_of(i).unwrap())
            .collect();
        // Claim all-zero aggregates for a non-empty fleet: every node's
        // samples and peak disagree with the recompute.
        let zeros = NodeAggregates::zeros(&fixture.topology, grid);
        let mut report = OracleReport::new();
        check_resident_aggregates(&fixture.topology, grid, traces, &racks, &zeros, &mut report)
            .unwrap();
        assert!(!report.is_clean());
    }
}
