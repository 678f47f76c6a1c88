//! Embedding of service instances into asynchrony-score space (§3.5).
//!
//! Each instance becomes a `|B|`-dimensional point whose coordinates are
//! its I-to-S asynchrony scores against the top-`|B|` services' S-traces.
//! The paper prefers I-to-S over pairwise I-to-I scores because the latter
//! is quadratic in the fleet size and spans a sparse high-dimensional space
//! that clusters poorly.

use so_parallel::par_map;
use so_powertrace::{peak_of_samples, PowerTrace, TraceArena};
use so_workloads::Fleet;

use crate::error::CoreError;
use crate::score::{check_grid, peak_of_sum_samples};
use crate::straces::ServiceTraces;

/// Minimum embedding rows per worker thread: each row costs `|B|` trace
/// scans, so a handful already amortizes a spawn.
const ROW_GRAIN: usize = 8;

/// The S-trace side of an I-to-S embedding, prepared once per embedding:
/// the S-traces and their peaks. [`ServiceBasis::score_row`] is the one
/// row kernel behind [`score_vectors`], [`score_vectors_from_traces`] and
/// [`score_vectors_arena`].
#[derive(Debug, Clone)]
pub struct ServiceBasis<'a> {
    traces: &'a [PowerTrace],
    peaks: Vec<f64>,
}

impl<'a> ServiceBasis<'a> {
    /// Prepares `traces` (the S-traces, one per embedding dimension),
    /// scanning each one's peak once.
    pub fn new(traces: &'a [PowerTrace]) -> Self {
        Self {
            traces,
            peaks: traces.iter().map(PowerTrace::peak).collect(),
        }
    }

    /// The I-to-S scores of one instance row (samples on a
    /// `step_minutes` grid) against every S-trace, fused: the row's peak
    /// is scanned once, and each coordinate costs one
    /// [`peak_of_sum_samples`] pass — no aggregate trace is materialized.
    /// The peak sum is `0.0 + peak(row) + peak(s)` and a zero aggregate
    /// peak scores 2.0, exactly as [`crate::asynchrony_score`] computes
    /// them, so every coordinate is bit-identical to
    /// [`crate::instance_to_service_score`] on the same samples.
    ///
    /// # Errors
    ///
    /// Returns the [`CoreError::Trace`] length or step mismatch that
    /// `PowerTrace::try_add_assign` reports for the first S-trace off the
    /// row's grid.
    pub fn score_row(&self, row: &[f64], step_minutes: u32) -> Result<Vec<f64>, CoreError> {
        let row_peak = peak_of_samples(row);
        self.traces
            .iter()
            .zip(&self.peaks)
            .map(|(service, &service_peak)| {
                check_grid(row, step_minutes, service)?;
                let aggregate_peak = peak_of_sum_samples(row, service.samples())?;
                Ok(if aggregate_peak == 0.0 {
                    2.0
                } else {
                    (0.0 + row_peak + service_peak) / aggregate_peak
                })
            })
            .collect()
    }
}

/// Scores every member row against the S-traces with the
/// [`ServiceBasis`] kernel; `row(i)` yields instance `i`'s samples and
/// grid step. Rows are computed in parallel; each row is a pure function
/// of one instance, so the result is identical to the serial loop.
fn embed_rows<'t>(
    members: &[usize],
    straces: &ServiceTraces,
    row: impl Fn(usize) -> (&'t [f64], u32) + Sync,
) -> Result<Vec<Vec<f64>>, CoreError> {
    // Counters only: the placement recursion calls this concurrently, and
    // commutative integer adds stay thread-count independent.
    if so_telemetry::enabled() {
        so_telemetry::counter_add("so_embedding_runs_total", &[], 1);
        so_telemetry::counter_add("so_embedding_rows_total", &[], members.len() as u64);
    }
    let basis = ServiceBasis::new(straces.traces());
    par_map(members, ROW_GRAIN, |_, &i| {
        let (samples, step) = row(i);
        basis.score_row(samples, step)
    })
    .into_iter()
    .collect()
}

/// Computes the asynchrony-score vector of every member instance against
/// the given S-traces. Row `r` corresponds to `members[r]`.
///
/// # Errors
///
/// Propagates trace errors (grid mismatches).
pub fn score_vectors(
    fleet: &Fleet,
    members: &[usize],
    straces: &ServiceTraces,
) -> Result<Vec<Vec<f64>>, CoreError> {
    score_vectors_from_traces(fleet.averaged_traces(), members, straces)
}

/// Computes the asynchrony-score vector of every member instance against
/// the given S-traces, from an explicit trace slice (one trace per
/// instance). This is the degraded-data entry point: callers that
/// completed partial telemetry via [`crate::degraded::complete_traces`]
/// embed the completed traces without needing a [`Fleet`].
///
/// # Errors
///
/// Propagates trace errors (grid mismatches).
pub fn score_vectors_from_traces(
    traces: &[PowerTrace],
    members: &[usize],
    straces: &ServiceTraces,
) -> Result<Vec<Vec<f64>>, CoreError> {
    embed_rows(members, straces, |i| {
        (traces[i].samples(), traces[i].step_minutes())
    })
}

/// [`score_vectors_from_traces`] over a columnar [`TraceArena`] (row `i`
/// is instance `i`'s averaged I-trace), through the same
/// [`ServiceBasis::score_row`] kernel — bit-identical to the trace-slice
/// path on the same samples; the `arena` oracle family pins both against
/// the per-cell [`crate::instance_to_service_score`].
///
/// # Errors
///
/// Propagates trace errors (grid mismatches between arena rows and
/// S-traces).
pub fn score_vectors_arena(
    arena: &TraceArena,
    members: &[usize],
    straces: &ServiceTraces,
) -> Result<Vec<Vec<f64>>, CoreError> {
    embed_rows(members, straces, |i| (arena.row(i), arena.step_minutes()))
}

/// Computes pairwise I-to-I score vectors (each instance against every
/// member instance). Quadratic; retained for the embedding ablation that
/// justifies the paper's I-to-S choice. Row-parallel like [`score_vectors`].
///
/// # Errors
///
/// Propagates trace errors (grid mismatches).
pub fn pairwise_score_vectors(
    fleet: &Fleet,
    members: &[usize],
) -> Result<Vec<Vec<f64>>, CoreError> {
    if so_telemetry::enabled() {
        so_telemetry::counter_add("so_embedding_pairwise_runs_total", &[], 1);
        so_telemetry::counter_add("so_embedding_rows_total", &[], members.len() as u64);
    }
    let traces = fleet.averaged_traces();
    par_map(members, ROW_GRAIN, |_, &i| {
        members
            .iter()
            .map(|&j| crate::score::pairwise_score(&traces[i], &traces[j]))
            .collect()
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use so_powertrace::TimeGrid;
    use so_workloads::{InstanceSpec, ServiceClass};

    fn fleet() -> Fleet {
        let grid = TimeGrid::one_week(120);
        let specs = vec![
            InstanceSpec::nominal(ServiceClass::Frontend, 1),
            InstanceSpec::nominal(ServiceClass::Frontend, 2),
            InstanceSpec::nominal(ServiceClass::Db, 3),
            InstanceSpec::nominal(ServiceClass::Hadoop, 4),
        ];
        Fleet::generate(specs, grid, 1).unwrap()
    }

    #[test]
    fn vectors_have_strace_dimensionality() {
        let f = fleet();
        let members: Vec<usize> = (0..f.len()).collect();
        let st = ServiceTraces::extract(&f, &members, 3).unwrap();
        let vs = score_vectors(&f, &members, &st).unwrap();
        assert_eq!(vs.len(), 4);
        assert!(vs.iter().all(|v| v.len() == 3));
        // Scores live in (1, 2] for pairs.
        for v in &vs {
            for &s in v {
                assert!((1.0..=2.0).contains(&s), "score {s} out of pair range");
            }
        }
    }

    #[test]
    fn same_service_instances_embed_close() {
        let f = fleet();
        let members: Vec<usize> = (0..f.len()).collect();
        let st = ServiceTraces::extract(&f, &members, 3).unwrap();
        let vs = score_vectors(&f, &members, &st).unwrap();
        let d = |a: &[f64], b: &[f64]| -> f64 {
            a.iter()
                .zip(b)
                .map(|(x, y)| (x - y).powi(2))
                .sum::<f64>()
                .sqrt()
        };
        // The two frontend instances are nearer each other than either is
        // to the db instance.
        assert!(d(&vs[0], &vs[1]) < d(&vs[0], &vs[2]));
        assert!(d(&vs[0], &vs[1]) < d(&vs[1], &vs[3]));
    }

    #[test]
    fn arena_vectors_are_bit_identical_to_trace_vectors() {
        let f = fleet();
        let members: Vec<usize> = (0..f.len()).collect();
        let st = ServiceTraces::extract(&f, &members, 3).unwrap();
        let from_traces = score_vectors_from_traces(f.averaged_traces(), &members, &st).unwrap();
        let arena = TraceArena::from_traces(f.averaged_traces()).unwrap();
        let from_arena = score_vectors_arena(&arena, &members, &st).unwrap();
        assert_eq!(from_arena.len(), from_traces.len());
        for (a, b) in from_arena.iter().zip(&from_traces) {
            for (x, y) in a.iter().zip(b) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn score_row_is_bit_identical_to_instance_to_service_score() {
        let trace = |v: &[f64]| PowerTrace::new(v.to_vec(), 10).unwrap();
        let services = [
            trace(&[0.0, 4.0, 2.0]),
            trace(&[2.5, 7.5, 0.0]),
            trace(&[0.0, 0.0, 0.0]),
        ];
        let basis = ServiceBasis::new(&services);
        for instance in [
            trace(&[4.0, 0.0, 2.0]),
            trace(&[0.1, 0.7, 0.3]),
            trace(&[0.0, 0.0, 0.0]),
        ] {
            let row = basis.score_row(instance.samples(), 10).unwrap();
            for (got, service) in row.iter().zip(&services) {
                let want = crate::instance_to_service_score(&instance, service).unwrap();
                assert_eq!(got.to_bits(), want.to_bits());
            }
        }
        assert!(basis.score_row(&[1.0, 2.0], 10).is_err());
        assert!(basis.score_row(&[1.0, 2.0, 3.0], 15).is_err());
    }

    #[test]
    fn pairwise_vectors_are_symmetric_with_unit_diagonal() {
        let f = fleet();
        let members: Vec<usize> = (0..f.len()).collect();
        let vs = pairwise_score_vectors(&f, &members).unwrap();
        for (r, row) in vs.iter().enumerate() {
            assert!((row[r] - 1.0).abs() < 1e-9, "diagonal should be 1.0");
            for (c, &v) in row.iter().enumerate() {
                assert!((v - vs[c][r]).abs() < 1e-9);
            }
        }
    }
}
