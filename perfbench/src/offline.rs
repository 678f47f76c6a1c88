//! `offline-place`: the paper's §3.5 pipeline as a batch job.
//!
//! A `dc1` fleet on its native 1008-sample weekly grid is placed onto
//! `fitting_topology(n, 12)` by `SmoothPlacer::place`, and the placement
//! is aggregated over the test week with `NodeAggregates::compute`. One
//! place plus compute is the unit operation (time to solution). After each
//! placement, a planner asks where a handful of further instances would
//! fit (`best_rack_for`), which is the workload's query. The result is
//! compared with `oblivious_placement`, the Fig. 10 baseline. A round
//! places several independent fleets, so the reported gain does not hang
//! on one fleet's draw.

use std::time::Instant;

use so_baselines::oblivious_placement;
use so_cluster::{balanced_kmeans, KMeansConfig};
use so_core::{best_rack_for, score_vectors, PlacementConfig, ServiceTraces, SmoothPlacer};
use so_oracles::fitting_topology;
use so_powertrace::PowerTrace;
use so_powertree::{Assignment, Level, NodeAggregates, NodeId, PowerTopology};
use so_workloads::{DcScenario, Fleet};

use crate::inputs::{mix, Draws};
use crate::metrics::{layer, mean_span};
use crate::stats::{Digest, Metric, Outcome};
use crate::trace::Tracer;
use crate::{Bench, Quality, Round};

/// Instances per fleet: exactly the slots of `fitting_topology`, so
/// both placements fill every rack.
const INSTANCES: usize = 1536;
/// Independent fleets per run. The placement gain of one fleet varies
/// from seed to seed; the run reports it over all of them.
const FLEETS: usize = 4;
/// Rack slots.
const RACK_CAPACITY: usize = 12;
/// Admission queries after each placement.
const QUERIES: usize = 24;

/// One fleet with its baseline and query candidates.
struct Problem {
    fleet: Fleet,
    baseline: NodeAggregates,
    candidates: Vec<PowerTrace>,
}

/// The offline-place workload state.
pub struct OfflinePlace {
    problems: Vec<Problem>,
    topology: PowerTopology,
    budgets: Vec<f64>,
    placer: SmoothPlacer,
    last: Vec<(Assignment, NodeAggregates)>,
    placements: u64,
}

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// Sum of rack peaks, recomputed rack by rack.
fn rack_sum_of_peaks(topology: &PowerTopology, aggs: &NodeAggregates) -> Result<f64, String> {
    let mut sum = 0.0;
    for &rack in topology.racks() {
        sum += aggs.peak(rack).map_err(err("rack peak"))?;
    }
    Ok(sum)
}

/// Percent by which `placed` lowers the rack-level sum of peaks of
/// `baseline`.
pub fn reduction_pct(baseline_sum: f64, placed_sum: f64) -> f64 {
    100.0 * (baseline_sum - placed_sum) / baseline_sum
}

/// Checks that a reported reduction equals one recomputed from the two
/// aggregates.
pub fn check_reduction(reported: f64, baseline_sum: f64, placed_sum: f64) -> Result<(), String> {
    let recomputed = reduction_pct(baseline_sum, placed_sum);
    if (reported - recomputed).abs() <= 1e-9 * recomputed.abs().max(1.0) {
        Ok(())
    } else {
        Err(format!(
            "reported {reported} % but the aggregates give {recomputed} %"
        ))
    }
}

/// Checks that every instance sits on a rack and no rack is over capacity.
pub fn check_assignment(
    topology: &PowerTopology,
    rack_of: &[NodeId],
    instances: usize,
) -> Result<(), String> {
    if rack_of.len() != instances {
        return Err(format!(
            "{} of {instances} instances assigned",
            rack_of.len()
        ));
    }
    let mut load = vec![0usize; topology.len()];
    for (i, &rack) in rack_of.iter().enumerate() {
        if !topology.node(rack).map_err(err("node"))?.is_rack() {
            return Err(format!("instance {i} is on non-rack node {}", rack.index()));
        }
        load[rack.index()] += 1;
        if load[rack.index()] > topology.rack_capacity() {
            return Err(format!(
                "rack {} holds more than {} instances",
                rack.index(),
                topology.rack_capacity()
            ));
        }
    }
    Ok(())
}

impl OfflinePlace {
    /// The root-level calls of one placement, timed one by one: S-trace
    /// extraction, I-to-S scoring and the first balanced k-means.
    fn root_calls(
        &self,
        fleet: &Fleet,
        tracer: &Tracer,
        parent: u64,
        request: u64,
    ) -> Result<(), String> {
        let all: Vec<usize> = (0..fleet.len()).collect();
        let config = *self.placer.config();
        let span = tracer.start("straces.extract", parent, request);
        let straces =
            ServiceTraces::extract(fleet, &all, config.top_services).map_err(err("extract"))?;
        tracer.end(span);
        let span = tracer.start("embedding.score_vectors", parent, request);
        let vectors = score_vectors(fleet, &all, &straces).map_err(err("score"))?;
        tracer.end(span);
        // The first node that splits its members: the root's children.
        let q = self
            .topology
            .node(self.topology.root())
            .map_err(err("root"))?
            .children()
            .len();
        let points: Vec<&[f64]> = vectors.iter().map(Vec::as_slice).collect();
        let k = (q * config.clusters_per_child).min(points.len()).max(2);
        let span = tracer.start("cluster.balanced_kmeans", parent, request);
        let clustering = balanced_kmeans(
            &points,
            KMeansConfig {
                seed: config.seed,
                ..KMeansConfig::new(k)
            },
        )
        .map_err(err("kmeans"))?;
        tracer.end(span);
        tracer.count("cluster.k", clustering.k() as f64);
        Ok(())
    }
}

impl Bench for OfflinePlace {
    fn setup(seed: u64, tracer: &Tracer) -> Result<Self, String> {
        let topology = fitting_topology(INSTANCES, RACK_CAPACITY).map_err(err("topology"))?;
        let mut problems = Vec::with_capacity(FLEETS);
        for f in 0..FLEETS as u64 {
            let mut scenario = DcScenario::dc1();
            scenario.seed = mix(mix(scenario.seed, seed), f);
            let span = tracer.start("workloads.synth", 0, f);
            let fleet = scenario
                .generate_fleet(INSTANCES)
                .map_err(err("generate_fleet"))?;
            tracer.end(span);
            let oblivious =
                oblivious_placement(&fleet, &topology, scenario.baseline_mixing, mix(seed, f))
                    .map_err(err("oblivious_placement"))?;
            let baseline = NodeAggregates::compute(&topology, &oblivious, fleet.test_traces())
                .map_err(err("baseline aggregates"))?;
            let mut draws = Draws::new(seed, 0x0FF1 + f);
            let candidates = (0..QUERIES)
                .map(|_| fleet.test_traces()[draws.below(INSTANCES)].clone())
                .collect();
            problems.push(Problem {
                fleet,
                baseline,
                candidates,
            });
        }
        Ok(Self {
            problems,
            budgets: topology.nodes().iter().map(|n| n.budget_watts()).collect(),
            topology,
            placer: SmoothPlacer::new(PlacementConfig::default()),
            last: Vec::new(),
            placements: 0,
        })
    }

    fn round(&mut self, tracer: &Tracer) -> Result<Round, String> {
        let mut round = Round::default();
        let mut digest = Digest::default();
        self.last.clear();
        for problem in &self.problems {
            self.placements += 1;
            let request = self.placements;
            let root = tracer.start("offline.placement", 0, request);
            if tracer.enabled() {
                self.root_calls(&problem.fleet, tracer, root.id(), request)?;
            }
            let t0 = Instant::now();
            let span = tracer.start("placement.place", root.id(), request);
            let assignment = self
                .placer
                .place(&problem.fleet, &self.topology)
                .map_err(err("place"))?;
            tracer.end(span);
            let span = tracer.start("powertree.compute", root.id(), request);
            let aggs =
                NodeAggregates::compute(&self.topology, &assignment, problem.fleet.test_traces())
                    .map_err(err("compute"))?;
            tracer.end(span);
            let op = t0.elapsed().as_secs_f64();
            round.ops.ok(op * 1e3);
            round.stream_s += op;
            round.items += problem.fleet.len() as f64;

            for &rack in assignment.racks() {
                digest.word(rack.index() as u64);
            }
            digest.float(aggs.sum_of_peaks(&self.topology, Level::Rack));
            for candidate in &problem.candidates {
                let span = tracer.start("offline.query", root.id(), request);
                let t0 = Instant::now();
                let best =
                    best_rack_for(&self.topology, &assignment, &aggs, &self.budgets, candidate);
                let dt = t0.elapsed().as_secs_f64() * 1e3;
                tracer.end(span);
                match best {
                    Ok(best) => {
                        round.queries.ok(dt);
                        digest.word(best.map_or(u64::MAX, |d| d.rack.index() as u64));
                    }
                    Err(_) => round.queries.failed(),
                }
            }
            tracer.end(root);
            self.last.push((assignment, aggs));
        }
        round.digest = digest.value();
        Ok(round)
    }

    fn finish(&mut self, out: &mut Outcome, _tracer: &Tracer) -> Result<Quality, String> {
        if self.last.len() != self.problems.len() {
            return Err("no round ran".into());
        }
        let (mut base_sum, mut placed_sum) = (0.0, 0.0);
        let (mut base_check, mut placed_check) = (0.0, 0.0);
        let mut scores = Vec::new();
        let mut min_headroom = f64::INFINITY;
        let mut assigned = Ok(());
        for (problem, (assignment, aggs)) in self.problems.iter().zip(&self.last) {
            if assigned.is_ok() {
                assigned = check_assignment(&self.topology, assignment.racks(), INSTANCES);
            }
            base_sum += problem.baseline.sum_of_peaks(&self.topology, Level::Rack);
            placed_sum += aggs.sum_of_peaks(&self.topology, Level::Rack);
            base_check += rack_sum_of_peaks(&self.topology, &problem.baseline)?;
            placed_check += rack_sum_of_peaks(&self.topology, aggs)?;
            // Rack asynchrony over the test week: sum of member peaks over
            // the rack's aggregate peak.
            let traces = problem.fleet.test_traces();
            for (rack, members) in assignment.by_rack() {
                let peak = aggs.peak(rack).map_err(err("peak"))?;
                let sum: f64 = members.iter().map(|&i| traces[i].peak()).sum();
                scores.push(sum / peak);
            }
            for &rack in self.topology.racks() {
                min_headroom = min_headroom.min(
                    aggs.headroom(&self.topology, rack)
                        .map_err(err("headroom"))?,
                );
            }
        }
        out.check(
            "every instance is assigned and no rack is over capacity",
            assigned,
        );
        let reported = reduction_pct(base_sum, placed_sum);
        out.check(
            "rack_peak_reduction_pct matches the two NodeAggregates",
            check_reduction(reported, base_check, placed_check),
        );
        Ok(Quality {
            rack_peak_reduction_pct: reported,
            mean_rack_asynchrony: crate::stats::mean(&scores),
            min_rack_headroom_w: min_headroom,
        })
    }

    fn layers(&self, tracer: &Tracer) -> Vec<Metric> {
        let secs = |name: &str| mean_span(tracer, name, 1e9);
        let (synth, n_synth) = secs("workloads.synth");
        let (extract, n) = secs("straces.extract");
        let (score, _) = secs("embedding.score_vectors");
        let (kmeans, _) = secs("cluster.balanced_kmeans");
        let (place, n_place) = secs("placement.place");
        let (compute, n_compute) = secs("powertree.compute");
        vec![
            layer(
                "workloads.synth_s",
                synth,
                n_synth,
                "generate_fleet per fleet",
            ),
            layer("straces.extract_s", extract, n, "root-level call"),
            layer("embedding.score_vectors_s", score, n, "root-level call"),
            layer("cluster.balanced_kmeans_s", kmeans, n, "root-level call"),
            layer(
                "placement.recursion_s",
                place - extract - score - kmeans,
                n_place,
                "place minus the three root-level calls",
            ),
            layer("powertree.compute_s", compute, n_compute, "per placement"),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planted_reduction_mismatch_fails() {
        let reported = reduction_pct(1000.0, 950.0);
        assert_eq!(reported, 5.0);
        assert!(check_reduction(reported, 1000.0, 950.0).is_ok());
        assert!(check_reduction(reported + 0.01, 1000.0, 950.0).is_err());
        assert!(check_reduction(reported, 1000.0, 951.0).is_err());
    }

    #[test]
    fn planted_over_capacity_rack_fails() {
        let topology = fitting_topology(48, 4).unwrap();
        let racks = topology.racks();
        let mut rack_of: Vec<_> = (0..48).map(|i| racks[i % racks.len()]).collect();
        assert!(check_assignment(&topology, &rack_of, 48).is_ok());
        assert!(check_assignment(&topology, &rack_of, 49).is_err());
        // Five instances on a 4-slot rack.
        for slot in rack_of.iter_mut().take(5) {
            *slot = racks[0];
        }
        assert!(check_assignment(&topology, &rack_of, 48).is_err());
        // An instance on a node that is not a rack.
        rack_of[0] = topology.root();
        assert!(check_assignment(&topology, &rack_of, 48).is_err());
    }
}
