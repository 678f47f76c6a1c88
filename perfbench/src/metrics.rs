//! The metric catalogue and its assembly from measured rounds.
//!
//! Every run prints every metric of its kind. End-to-end metrics are
//! defined on all three workloads. A per-layer metric of a layer that a
//! workload never calls reads 0, with a note saying so.

use crate::stats::{median, Latencies, Metric};
use crate::{Quality, Round};

/// End-to-end metrics, `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("items_per_s", "1/s"),
    ("rack_peak_reduction_pct", "%"),
    ("mean_rack_asynchrony", "score"),
    ("min_rack_headroom_w", "W"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run, `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.synth_s", "s"),
    ("straces.extract_s", "s"),
    ("embedding.score_vectors_s", "s"),
    ("cluster.balanced_kmeans_s", "s"),
    ("placement.recursion_s", "s"),
    ("powertree.compute_s", "s"),
    ("online.probe_us", "us"),
    ("online.select_us", "us"),
    ("online.commit_us", "us"),
    ("online.fit_ratio", "ratio"),
    ("online.retire_us", "us"),
    ("online.repair_ms", "ms"),
    ("online.repair_moves", "count"),
    ("online.observe_us", "us"),
    ("online.fragmentation_us", "us"),
    ("serve.build_daemon_s", "s"),
    ("serve.route_ingest_us", "us"),
    ("serve.route_query_us", "us"),
    ("serve.route_scrape_us", "us"),
    ("serve.route_mutate_us", "us"),
    ("http.overhead_us", "us"),
    ("daemon.ingest_us", "us"),
    ("daemon.parse_us", "us"),
    ("daemon.racks_touched_per_batch", "count"),
    ("daemon.applied_ratio", "ratio"),
    ("parallel.lane_speedup", "ratio"),
    ("parallel.op_1lane_ms", "ms"),
    ("parallel.op_default_ms", "ms"),
    ("telemetry.sink_overhead_pct", "%"),
    ("trace.overhead_pct", "%"),
];

fn unit_of(table: &[(&'static str, &'static str)], name: &str) -> &'static str {
    table
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("{name} is not in the catalogue"))
}

/// A per-layer metric from the catalogue.
pub fn layer(name: &'static str, value: f64, samples: usize, note: impl Into<String>) -> Metric {
    Metric::new(name, value, unit_of(PER_LAYER, name), samples, note)
}

/// Mean span duration of `name` in the given unit scale (ns per unit),
/// with its span count.
pub fn mean_span(tracer: &crate::trace::Tracer, name: &str, ns_per_unit: f64) -> (f64, usize) {
    let (total, count) = tracer.total(name);
    if count == 0 {
        (0.0, 0)
    } else {
        (total as f64 / count as f64 / ns_per_unit, count)
    }
}

fn merged(rounds: &[Round], pick: &impl Fn(&Round) -> &Latencies) -> Latencies {
    let mut all = Latencies::default();
    for r in rounds {
        all.extend(pick(r));
    }
    all
}

/// Median and tail of one latency class. When every round holds enough
/// samples for its own tail, the tail is the median of the per-round
/// tails, so one disturbed round cannot move it; otherwise the samples of
/// all rounds are pooled.
fn latency(
    rounds: &[Round],
    pick: impl Fn(&Round) -> &Latencies,
    p50: &'static str,
    p99: &'static str,
) -> Result<[Metric; 2], String> {
    let pooled = merged(rounds, &pick);
    let [mut mid, mut tail] = Metric::latency_pair(p50, p99, &pooled)?;
    let per_round: Option<Vec<[Metric; 2]>> = rounds
        .iter()
        .map(|r| Metric::latency_pair(p50, p99, pick(r)).ok())
        .collect();
    if let Some(per_round) = per_round.filter(|v| v.len() > 1) {
        let mids: Vec<f64> = per_round.iter().map(|[m, _]| m.value).collect();
        let tails: Vec<f64> = per_round.iter().map(|[_, t]| t.value).collect();
        mid.value = median(&mids).unwrap_or(mid.value);
        mid.note = format!("median over {} rounds of the round's p50", rounds.len());
        tail.value = median(&tails).unwrap_or(tail.value);
        tail.note = format!(
            "median over {} rounds of the round's {}",
            rounds.len(),
            per_round[0][1].note
        );
    } else {
        tail.note = format!("pooled over {} rounds: {}", rounds.len(), tail.note);
    }
    Ok([mid, tail])
}

/// The end-to-end metrics of an untraced run.
///
/// # Errors
///
/// Fails when a latency class has too few samples for its tail.
pub fn end_to_end(
    setup_s: &[f64],
    rounds: &[Round],
    quality: &Quality,
) -> Result<Vec<Metric>, String> {
    let m = |name: &'static str, value: f64, samples: usize, note: &str| {
        Metric::new(name, value, unit_of(END_TO_END, name), samples, note)
    };
    let [op_p50, op_p99] = latency(rounds, |r| &r.ops, "op_p50_ms", "op_p99_ms")?;
    let [_, query_p99] = latency(rounds, |r| &r.queries, "query_p50_ms", "query_p99_ms")?;
    let rates: Vec<f64> = rounds
        .iter()
        .map(|r| r.items / r.stream_s.max(1e-12))
        .collect();
    let rss = smoothoperator::scale::peak_rss_bytes().ok_or("peak RSS is unavailable")? as f64
        / (1024.0 * 1024.0);
    Ok(vec![
        m(
            "setup_s",
            median(setup_s).unwrap_or(0.0),
            setup_s.len(),
            "median of set-ups",
        ),
        op_p50,
        op_p99,
        query_p99,
        m(
            "items_per_s",
            median(&rates).unwrap_or(0.0),
            rounds.len(),
            "median over rounds of items per second of the work stream",
        ),
        m(
            "rack_peak_reduction_pct",
            quality.rack_peak_reduction_pct,
            1,
            "rack sum-of-peaks vs oblivious_placement",
        ),
        m(
            "mean_rack_asynchrony",
            quality.mean_rack_asynchrony,
            1,
            "mean over non-empty racks",
        ),
        m(
            "min_rack_headroom_w",
            quality.min_rack_headroom_w,
            1,
            "smallest rack budget minus rack peak",
        ),
        m("peak_rss_mb", rss, 1, "VmHWM of the benchmark process"),
    ])
}

/// The per-layer metrics of a traced run: the workload's own layers plus
/// the lane, sink and tracing comparisons every workload makes.
pub fn per_layer(
    own: Vec<Metric>,
    plain: &[Round],
    traced: &[Round],
    wide: &Round,
    sunk: &Round,
    default_lanes: usize,
) -> Vec<Metric> {
    let plain_op_s = median(&plain.iter().map(Round::op_s).collect::<Vec<_>>()).unwrap_or(0.0);
    let traced_op_s = median(&traced.iter().map(Round::op_s).collect::<Vec<_>>()).unwrap_or(0.0);
    let pct = |x: f64| 100.0 * (x - plain_op_s) / plain_op_s.max(1e-12);
    let plain_ops = merged(plain, &|r: &Round| &r.ops);
    let mut all = own;
    all.extend([
        layer(
            "parallel.lane_speedup",
            plain_op_s / wide.op_s().max(1e-12),
            plain.len() + 1,
            format!("main calls at 1 lane over {default_lanes} lanes"),
        ),
        layer(
            "parallel.op_1lane_ms",
            plain_ops.median().unwrap_or(0.0),
            plain_ops.attempted() as usize,
            "median main call at 1 lane",
        ),
        layer(
            "parallel.op_default_ms",
            wide.ops.median().unwrap_or(0.0),
            wide.ops.attempted() as usize,
            format!("median main call at {default_lanes} lanes"),
        ),
        layer(
            "telemetry.sink_overhead_pct",
            pct(sunk.op_s()),
            plain.len() + 1,
            "main calls under a RecordingSink vs none",
        ),
        layer(
            "trace.overhead_pct",
            pct(traced_op_s),
            plain.len() + traced.len(),
            "main calls in traced vs untraced rounds",
        ),
    ]);
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            all.iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or_else(|| {
                    Metric::new(name, 0.0, unit, 0, "layer not on this workload's path")
                })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_metric_name;

    #[test]
    fn catalogue_names_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_metric_name(name), "{name}");
            assert!(seen.insert(*name), "{name} is listed twice");
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
        }
    }

    /// The catalogue and `BENCHMARK.json` list the same metrics with the
    /// same units.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let listed: Vec<(String, String)> = json
            .split("\"name\": \"")
            .skip(1)
            .filter_map(|rest| {
                let name = rest.split('"').next()?.to_string();
                let unit = rest.split("\"unit\": \"").nth(1)?.split('"').next()?;
                // Workload entries carry no unit before the next name.
                let before_next = rest.split("\"name\"").next()?;
                before_next
                    .contains("\"unit\"")
                    .then(|| (name, unit.to_string()))
            })
            .collect();
        let ours: Vec<(String, String)> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed, ours);
    }

    #[test]
    fn missing_layers_read_zero_with_a_note() {
        let round = || Round {
            ops: {
                let mut l = Latencies::default();
                l.ok(2.0);
                l
            },
            ..Round::default()
        };
        let metrics = per_layer(
            vec![layer("online.fit_ratio", 0.5, 10, "")],
            &[round(), round()],
            &[round()],
            &round(),
            &round(),
            2,
        );
        assert_eq!(metrics.len(), PER_LAYER.len());
        let get = |n: &str| metrics.iter().find(|m| m.name == n).unwrap();
        assert_eq!(get("online.fit_ratio").value, 0.5);
        assert_eq!(get("serve.route_ingest_us").value, 0.0);
        assert!(get("serve.route_ingest_us").note.contains("not on"));
        assert_eq!(get("parallel.lane_speedup").value, 1.0);
    }
}
