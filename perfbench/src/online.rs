//! `online-churn`: a scheduler's closed loop over the online engine.
//!
//! Hourly 168-sample rows stream through an `OnlineFleet` with
//! `CommitPolicy::Sampling { probes: 64 }` on the online topology shape,
//! with a headless observability plane attached. Each batch retires a
//! fifth of the batch size from the live set, offers the batch's
//! arrivals one at a time (the unit operation), then runs one `repair`,
//! one `observe_batch` and one `fragmentation_cached`. Between batches a
//! scheduler asks the engine where a few candidates would go
//! (`decisions` + `select_decision`), which is the workload's query.

use std::sync::Arc;
use std::time::Instant;

use so_baselines::oblivious_placement;
use so_core::{
    sample_racks, select_decision, CommitPolicy, LeafDecision, OnlineConfig, OnlineFleet,
};
use so_powertrace::{PowerTrace, TimeGrid};
use so_powertree::{Level, NodeAggregates, PowerTopology};
use so_telemetry::{default_online_rules, LivePlane, RecordingSink};
use so_workloads::{Fleet, ServiceClass};

use crate::inputs::{mix, Draws, Waves};
use crate::metrics::{layer, mean_span};
use crate::offline::reduction_pct;
use crate::stats::{Digest, Metric, Outcome};
use crate::trace::Tracer;
use crate::{Bench, Quality, Round};

/// Samples per row: one week, hourly.
pub const SAMPLES: usize = 168;
/// Minutes per sample.
pub const STEP_MINUTES: u32 = 60;
/// Rack slots of the online topology.
pub const RACK_SLOTS: usize = 12;
/// Rack budget of the online topology, watts.
pub const RACK_BUDGET_W: f64 = 3_600.0;
/// Candidate racks probed per arrival.
pub const PROBES: usize = 64;
/// Arrivals offered per round.
const ARRIVALS: usize = 4_000;
/// Batches per round.
const BATCHES: usize = 10;
/// Admission queries per batch.
const QUERIES_PER_BATCH: usize = 20;

/// The online topology shape (1 suite × 2 MSB × 2 SB × r RPP × 4
/// racks, 12 slots and 3.6 kW per rack), sized so slots cover `n`.
pub fn online_topology(n: usize) -> Result<PowerTopology, String> {
    let racks = n.div_ceil(RACK_SLOTS).max(1);
    PowerTopology::builder()
        .suites(1)
        .msbs_per_suite(2)
        .sbs_per_msb(2)
        .rpps_per_sb(racks.div_ceil(16).max(1))
        .racks_per_rpp(4)
        .rack_capacity(RACK_SLOTS)
        .rack_budget_watts(RACK_BUDGET_W)
        .name("perfbench-online")
        .build()
        .map_err(|e| format!("topology: {e}"))
}

/// A headless plane on the virtual clock, as the online rung attaches.
pub fn headless_plane() -> Arc<LivePlane> {
    Arc::new(LivePlane::new(
        Arc::new(RecordingSink::with_virtual_clock()),
        256,
        default_online_rules(),
    ))
}

/// Row `i` of wave family `family` as a trace.
pub fn wave_trace(waves: &Waves, family: u64, i: u64) -> Result<PowerTrace, String> {
    PowerTrace::new(waves.row(family, i), STEP_MINUTES).map_err(|e| format!("row: {e}"))
}

/// Checks that the engine's resident aggregates are bit-identical to a
/// from-scratch `NodeAggregates::compute` over its live view.
pub fn check_aggregates(
    topology: &PowerTopology,
    resident: &NodeAggregates,
    recomputed: &NodeAggregates,
) -> Result<(), String> {
    for node in topology.nodes() {
        let a = resident.trace(node.id()).map_err(|e| e.to_string())?;
        let b = recomputed.trace(node.id()).map_err(|e| e.to_string())?;
        let same = a.len() == b.len()
            && a.samples()
                .iter()
                .zip(b.samples())
                .all(|(x, y)| x.to_bits() == y.to_bits());
        if !same {
            return Err(format!(
                "node {} differs from the recompute",
                node.id().index()
            ));
        }
    }
    Ok(())
}

/// Rack-level quality of a live fleet: reduction against
/// `oblivious_placement` of the same traces, mean asynchrony and the
/// smallest rack headroom. Also returns the recomputed aggregates.
pub fn fleet_quality(
    fleet: &OnlineFleet,
    seed: u64,
    tracer: &Tracer,
) -> Result<(Quality, NodeAggregates), String> {
    let topology = fleet.topology();
    let (traces, assignment, _) = fleet.live_view().map_err(|e| format!("live_view: {e}"))?;
    let span = tracer.start("powertree.compute", 0, 0);
    let recomputed = NodeAggregates::compute(topology, &assignment, &traces)
        .map_err(|e| format!("compute: {e}"))?;
    tracer.end(span);
    let services = vec![ServiceClass::Frontend; traces.len()];
    let as_fleet = Fleet::from_traces(services, traces.clone(), traces.clone())
        .map_err(|e| format!("fleet: {e}"))?;
    let oblivious = oblivious_placement(&as_fleet, topology, 0.0, seed)
        .map_err(|e| format!("oblivious_placement: {e}"))?;
    let baseline = NodeAggregates::compute(topology, &oblivious, &traces)
        .map_err(|e| format!("baseline: {e}"))?;
    let mut min_headroom = f64::INFINITY;
    for &rack in topology.racks() {
        min_headroom = min_headroom.min(fleet.headroom(rack).map_err(|e| e.to_string())?);
    }
    Ok((
        Quality {
            rack_peak_reduction_pct: reduction_pct(
                baseline.sum_of_peaks(topology, Level::Rack),
                recomputed.sum_of_peaks(topology, Level::Rack),
            ),
            mean_rack_asynchrony: fleet.mean_rack_asynchrony().unwrap_or(0.0),
            min_rack_headroom_w: min_headroom,
        },
        recomputed,
    ))
}

/// The online-churn workload state.
pub struct OnlineChurn {
    seed: u64,
    topology: PowerTopology,
    config: OnlineConfig,
    rows: Vec<PowerTrace>,
    queries: Vec<PowerTrace>,
    reference: PowerTrace,
    last: Option<OnlineFleet>,
    mismatched_selects: u64,
}

impl OnlineChurn {
    /// The benchmark's own probe and select for the next arrival: the
    /// sampled racks, each evaluated serially, then the policy's pick.
    fn probe_and_select(
        &self,
        fleet: &OnlineFleet,
        row: &PowerTrace,
        tracer: &Tracer,
        parent: u64,
        request: u64,
    ) -> Result<Option<LeafDecision>, String> {
        let span = tracer.start("online.probe", parent, request);
        let racks = sample_racks(
            self.topology.racks(),
            self.config.sample_salt,
            fleet.arrivals_seen(),
            PROBES,
        );
        let decisions = racks
            .iter()
            .map(|&rack| fleet.evaluate(rack, row.samples()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("evaluate: {e}"))?;
        tracer.end(span);
        let span = tracer.start("online.select", parent, request);
        let pick = select_decision(&self.config.policy, &decisions).copied();
        tracer.end(span);
        tracer.count("online.probed", decisions.len() as f64);
        tracer.count(
            "online.admissible",
            decisions.iter().filter(|d| d.fits).count() as f64,
        );
        Ok(pick)
    }
}

impl Bench for OnlineChurn {
    fn setup(seed: u64, tracer: &Tracer) -> Result<Self, String> {
        let span = tracer.start("workloads.synth", 0, 0);
        let waves = Waves::new(SAMPLES);
        let family = mix(seed, 0x0E7E);
        let rows = (0..ARRIVALS as u64)
            .map(|i| wave_trace(&waves, family, i))
            .collect::<Result<Vec<_>, _>>()?;
        let queries = (0..QUERIES_PER_BATCH as u64)
            .map(|i| wave_trace(&waves, family ^ 0x9E3, i))
            .collect::<Result<Vec<_>, _>>()?;
        tracer.end(span);
        let reference = PowerTrace::new(vec![0.4 * RACK_BUDGET_W; SAMPLES], STEP_MINUTES)
            .map_err(|e| e.to_string())?;
        Ok(Self {
            seed,
            topology: online_topology(ARRIVALS)?,
            config: OnlineConfig {
                policy: CommitPolicy::Sampling { probes: PROBES },
                repair_budget: 8,
                min_gain: 0.02,
                sample_salt: mix(seed, 0x5A17),
                ..OnlineConfig::default()
            },
            rows,
            queries,
            reference,
            last: None,
            mismatched_selects: 0,
        })
    }

    fn round(&mut self, tracer: &Tracer) -> Result<Round, String> {
        let e = |what: &'static str| move |err: so_core::CoreError| format!("{what}: {err}");
        let grid = TimeGrid::new(STEP_MINUTES, SAMPLES);
        let mut fleet = OnlineFleet::new(self.topology.clone(), grid, self.config);
        fleet.attach_plane(headless_plane());
        fleet
            .set_fragmentation_reference(Some(&self.reference))
            .map_err(e("reference"))?;
        let mut round = Round::default();
        let mut digest = Digest::default();
        let per_batch = ARRIVALS / BATCHES;
        let mut draws = Draws::new(self.seed, 0xDE7A11);
        let mut moves = 0usize;
        for b in 0..BATCHES {
            let stream = Instant::now();
            if b > 0 {
                let live = fleet.live_slots();
                let mut slots: Vec<usize> = (0..per_batch / 5)
                    .map(|_| live[draws.below(live.len())])
                    .collect();
                slots.sort_unstable();
                slots.dedup();
                for slot in slots {
                    let span = tracer.start("online.retire", 0, slot as u64);
                    fleet.retire(slot).map_err(e("retire"))?;
                    tracer.end(span);
                    round.other_attempted += 1;
                }
            }
            for row in &self.rows[b * per_batch..(b + 1) * per_batch] {
                let request = fleet.arrivals_seen();
                let arrival = tracer.start("online.arrival", 0, request);
                let expected = if tracer.enabled() {
                    self.probe_and_select(&fleet, row, tracer, arrival.id(), request)?
                } else {
                    None
                };
                let span = tracer.start("online.arrive", arrival.id(), request);
                let t0 = Instant::now();
                let slot = fleet.arrive(row).map_err(e("arrive"))?;
                let dt = t0.elapsed().as_secs_f64() * 1e3;
                tracer.end(span);
                tracer.end(arrival);
                match slot {
                    Some(slot) => {
                        round.ops.ok(dt);
                        round.items += 1.0;
                        digest.word(slot as u64);
                        let rack = fleet.rack_of(slot).map(|r| r.index());
                        digest.word(rack.unwrap_or(usize::MAX) as u64);
                        if tracer.enabled() && expected.map(|d| d.rack.index()) != rack {
                            self.mismatched_selects += 1;
                        }
                    }
                    None => round.ops.failed(),
                }
            }
            let span = tracer.start("online.repair", 0, b as u64);
            let report = fleet.repair().map_err(e("repair"))?;
            tracer.end(span);
            moves += 2 * report.swaps.len();
            let span = tracer.start("online.observe", 0, b as u64);
            let transitions = fleet.observe_batch().map_err(e("observe_batch"))?;
            tracer.end(span);
            let span = tracer.start("online.fragmentation", 0, b as u64);
            let levels = fleet.fragmentation_cached().map_err(e("fragmentation"))?;
            tracer.end(span);
            round.other_attempted += 3;
            round.stream_s += stream.elapsed().as_secs_f64();
            digest.word(transitions.len() as u64);
            for level in levels.unwrap_or_default() {
                digest.float(level.ratio);
            }
            for query in &self.queries {
                let t0 = Instant::now();
                let pick = fleet
                    .decisions(query)
                    .map(|d| select_decision(&self.config.policy, &d).map(|d| d.rack.index()));
                let dt = t0.elapsed().as_secs_f64() * 1e3;
                match pick {
                    Ok(rack) => {
                        round.queries.ok(dt);
                        digest.word(rack.unwrap_or(usize::MAX) as u64);
                    }
                    Err(_) => round.queries.failed(),
                }
            }
        }
        tracer.count("online.repair_moves", moves as f64);
        digest.word(moves as u64);
        digest.word(fleet.committed());
        digest.word(fleet.rejected());
        digest.word(fleet.retired());
        digest.float(fleet.mean_rack_asynchrony().unwrap_or(0.0));
        round.digest = digest.value();
        self.last = Some(fleet);
        Ok(round)
    }

    fn finish(&mut self, out: &mut Outcome, tracer: &Tracer) -> Result<Quality, String> {
        let fleet = self.last.as_ref().ok_or("no round ran")?;
        let offered = ARRIVALS as u64;
        out.check(
            "committed plus rejected arrivals equal attempted arrivals",
            if fleet.committed() + fleet.rejected() == offered && fleet.arrivals_seen() == offered {
                Ok(())
            } else {
                Err(format!(
                    "{} committed + {} rejected, {} seen, {offered} offered",
                    fleet.committed(),
                    fleet.rejected(),
                    fleet.arrivals_seen()
                ))
            },
        );
        let (quality, recomputed) = fleet_quality(fleet, self.seed, tracer)?;
        out.check(
            "resident aggregates equal NodeAggregates::compute over live_view",
            check_aggregates(&self.topology, fleet.aggregates(), &recomputed),
        );
        if tracer.enabled() {
            out.check(
                "the benchmark's probe and select pick the committed rack",
                if self.mismatched_selects == 0 {
                    Ok(())
                } else {
                    Err(format!("{} arrivals differ", self.mismatched_selects))
                },
            );
        }
        Ok(quality)
    }

    fn layers(&self, tracer: &Tracer) -> Vec<Metric> {
        let us = |name: &str| mean_span(tracer, name, 1e3);
        let (probe, n) = us("online.probe");
        let (select, _) = us("online.select");
        let (arrive, _) = us("online.arrive");
        let (retire, n_retire) = us("online.retire");
        let (repair, n_repair) = mean_span(tracer, "online.repair", 1e6);
        let (observe, n_observe) = us("online.observe");
        let (frag, n_frag) = us("online.fragmentation");
        let (synth, n_synth) = mean_span(tracer, "workloads.synth", 1e9);
        let (compute, n_compute) = mean_span(tracer, "powertree.compute", 1e9);
        let probed = tracer.counter("online.probed");
        vec![
            layer(
                "workloads.synth_s",
                synth,
                n_synth,
                "row synthesis per set-up",
            ),
            layer(
                "powertree.compute_s",
                compute,
                n_compute,
                "live_view recompute",
            ),
            layer(
                "online.probe_us",
                probe,
                n,
                "sample_racks + serial evaluate",
            ),
            layer("online.select_us", select, n, "select_decision"),
            layer(
                "online.commit_us",
                arrive - probe - select,
                n,
                "arrive minus probe and select",
            ),
            layer(
                "online.fit_ratio",
                tracer.counter("online.admissible") / probed.max(1.0),
                probed as usize,
                "admissible over probed racks",
            ),
            layer("online.retire_us", retire, n_retire, "per retirement"),
            layer("online.repair_ms", repair, n_repair, "per repair pass"),
            layer(
                "online.repair_moves",
                tracer.counter("online.repair_moves") / (n_repair.max(1) as f64),
                n_repair,
                "moves per repair pass",
            ),
            layer("online.observe_us", observe, n_observe, "per observe_batch"),
            layer(
                "online.fragmentation_us",
                frag,
                n_frag,
                "per fragmentation_cached",
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use so_powertree::Assignment;

    #[test]
    fn planted_aggregate_mismatch_fails() {
        let topology = online_topology(24).unwrap();
        let waves = Waves::new(SAMPLES);
        let traces: Vec<PowerTrace> = (0..24).map(|i| wave_trace(&waves, 3, i).unwrap()).collect();
        let assignment = Assignment::round_robin(&topology, 24).unwrap();
        let a = NodeAggregates::compute(&topology, &assignment, &traces).unwrap();
        assert!(check_aggregates(&topology, &a, &a.clone()).is_ok());
        // One instance one milliwatt hotter at one sample.
        let mut planted = traces.clone();
        let mut samples = planted[5].samples().to_vec();
        samples[17] += 1e-3;
        planted[5] = PowerTrace::new(samples, STEP_MINUTES).unwrap();
        let b = NodeAggregates::compute(&topology, &assignment, &planted).unwrap();
        assert!(check_aggregates(&topology, &a, &b).is_err());
    }

    #[test]
    fn engine_matches_recompute_after_churn() {
        let topology = online_topology(96).unwrap();
        let config = OnlineConfig {
            policy: CommitPolicy::Sampling { probes: 4 },
            ..OnlineConfig::default()
        };
        let mut fleet = OnlineFleet::new(
            topology.clone(),
            TimeGrid::new(STEP_MINUTES, SAMPLES),
            config,
        );
        let waves = Waves::new(SAMPLES);
        for i in 0..60 {
            fleet.arrive(&wave_trace(&waves, 9, i).unwrap()).unwrap();
        }
        fleet.retire(fleet.live_slots()[7]).unwrap();
        let (quality, recomputed) = fleet_quality(&fleet, 1, &Tracer::new(false)).unwrap();
        assert!(check_aggregates(&topology, fleet.aggregates(), &recomputed).is_ok());
        assert!(quality.mean_rack_asynchrony >= 1.0);
    }
}
