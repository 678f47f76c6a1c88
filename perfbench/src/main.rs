//! The repository's benchmark: one command that runs a workload against
//! the SmoothOperator library from outside, checks its outputs, and
//! prints every metric by name with its unit.
//!
//! ```text
//! perfbench --workload <offline-place|online-churn|daemon-http> \
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the workload untraced and reports the end-to-end
//! metrics. `--trace 1` is the separate traced run: it wraps the same
//! calls in spans for the per-layer metrics and adds two companion
//! passes, one at the default lane count and one with a telemetry sink
//! attached. Measured passes run at one lane on one CPU (see
//! [`MEASURED_LANES`]).
//! The last line of standard output is the JSON result; the process exits
//! non-zero when an output check fails.

mod cpu;
mod daemon;
mod inputs;
mod metrics;
mod offline;
mod online;
mod stats;
mod trace;

use std::sync::Arc;
use std::time::Instant;

use stats::{Latencies, Metric, Outcome};
use trace::Tracer;

/// Lanes (`so_parallel` thread limit) of every measured pass, which also
/// runs pinned to one CPU (see [`cpu`]). On the 2-vCPU reference machine
/// the default of 2 lanes spawns a worker per parallel call, and its
/// timings vary up to 2x from run to run with thread wake-up latency and
/// host CPU steal; at 1 lane on one CPU they repeat within a few
/// percent. The traced run adds one pass at the default lane count on
/// every CPU and reports the ratio as `parallel.lane_speedup`.
const MEASURED_LANES: usize = 1;

/// Set-ups per run: at least this many, and more until
/// [`SETUP_MIN_SECONDS`] have passed; `setup_s` is their median.
const SETUP_MIN_REPS: usize = 3;
/// Least time spent on repeated set-ups.
const SETUP_MIN_SECONDS: f64 = 1.0;
/// Most set-ups per run.
const SETUP_MAX_REPS: usize = 200;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad)?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// What one fixed round of a workload's work produced.
#[derive(Debug, Default)]
pub struct Round {
    /// Latencies of the workload's unit operation.
    pub ops: Latencies,
    /// Latencies of read-only queries against the result.
    pub queries: Latencies,
    /// Work items completed (instances placed, arrivals committed,
    /// samples ingested).
    pub items: f64,
    /// Wall seconds of the round's work stream, queries excluded.
    pub stream_s: f64,
    /// Digest of the round's deterministic outputs.
    pub digest: u64,
    /// Further attempted operations outside `ops` and `queries`.
    pub other_attempted: u64,
    /// Failures among them.
    pub other_failed: u64,
}

impl Round {
    fn attempted(&self) -> u64 {
        self.ops.attempted() + self.queries.attempted() + self.other_attempted
    }

    fn failed(&self) -> u64 {
        self.ops.failures() + self.queries.failures() + self.other_failed
    }

    /// Seconds spent in the unit operation.
    fn op_s(&self) -> f64 {
        self.ops.total() / 1e3
    }
}

/// Placement quality of the workload's final state.
#[derive(Debug, Clone, Copy)]
pub struct Quality {
    /// Rack-level sum-of-peaks reduction against `oblivious_placement`
    /// of the same traces on the same topology, percent.
    pub rack_peak_reduction_pct: f64,
    /// Mean rack asynchrony score over non-empty racks.
    pub mean_rack_asynchrony: f64,
    /// Smallest rack headroom (budget minus peak), watts.
    pub min_rack_headroom_w: f64,
}

/// One workload: set-up, a fixed round of work that can be repeated, and
/// the checks and per-layer numbers taken at the end.
pub trait Bench: Sized {
    /// Builds the inputs and resident state. Timed as `setup_s`.
    fn setup(seed: u64, tracer: &Tracer) -> Result<Self, String>;
    /// Runs one round from the same starting state.
    fn round(&mut self, tracer: &Tracer) -> Result<Round, String>;
    /// Checks the last round's outputs and measures its quality.
    fn finish(&mut self, out: &mut Outcome, tracer: &Tracer) -> Result<Quality, String>;
    /// Per-layer metrics from the traced rounds' spans and counters.
    fn layers(&self, tracer: &Tracer) -> Vec<Metric>;
}

/// Runs rounds until `seconds` have passed (at least `min_rounds`).
fn rounds<B: Bench>(
    bench: &mut B,
    tracer: &Tracer,
    seconds: f64,
    min_rounds: usize,
) -> Result<Vec<Round>, String> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_rounds || t0.elapsed().as_secs_f64() < seconds {
        out.push(bench.round(tracer)?);
    }
    Ok(out)
}

fn digests_agree(reference: u64, rounds: &[Round], what: &str) -> Result<(), String> {
    match rounds.iter().find(|r| r.digest != reference) {
        None => Ok(()),
        Some(r) => Err(format!(
            "{what}: digest {:016x} differs from the first round's {reference:016x}",
            r.digest
        )),
    }
}

fn run<B: Bench>(args: &Args) -> Result<Outcome, String> {
    let default_lanes = so_parallel::thread_limit();
    let all_cpus = cpu::original();
    so_parallel::set_thread_limit(MEASURED_LANES);
    cpu::pin();
    // Records set-up spans and, in the traced run, the traced rounds.
    let tracer = Tracer::new(args.trace);
    let mut setup_s: Vec<f64> = Vec::new();
    let mut bench = None;
    while setup_s.len() < SETUP_MIN_REPS
        || (setup_s.iter().sum::<f64>() < SETUP_MIN_SECONDS && setup_s.len() < SETUP_MAX_REPS)
    {
        drop(bench.take());
        let t0 = Instant::now();
        bench = Some(B::setup(args.seed, &tracer)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("at least one set-up");
    let untraced = Tracer::new(false);
    // Warm-up round: fills caches and fixes the reference digest.
    let warm = bench.round(&untraced)?;
    let mut out = Outcome {
        digest: warm.digest,
        ..Outcome::default()
    };
    out.check(
        "warm-up round had no failures",
        if warm.failed() == 0 {
            Ok(())
        } else {
            Err(format!("{} of {} failed", warm.failed(), warm.attempted()))
        },
    );

    let measured;
    if args.trace {
        let third = args.seconds / 3.0;
        let plain = rounds(&mut bench, &untraced, third, 2)?;
        let traced = rounds(&mut bench, &tracer, third, 1)?;
        so_parallel::set_thread_limit(default_lanes);
        cpu::restore(all_cpus);
        let wide = bench.round(&untraced);
        cpu::pin();
        so_parallel::set_thread_limit(MEASURED_LANES);
        let wide = wide?;
        let sink = Arc::new(so_telemetry::RecordingSink::with_wall_clock());
        let sunk = so_telemetry::with_sink(sink, || bench.round(&untraced))?;
        out.check(
            "digest repeats across untraced rounds",
            digests_agree(warm.digest, &plain, "untraced"),
        );
        out.check(
            "digest repeats across traced rounds",
            digests_agree(warm.digest, &traced, "traced"),
        );
        out.check(
            "digest at the default lane count equals the 1-lane digest",
            digests_agree(warm.digest, std::slice::from_ref(&wide), "default lanes"),
        );
        out.check(
            "digest with a sink attached equals the sink-free digest",
            digests_agree(warm.digest, std::slice::from_ref(&sunk), "sink"),
        );
        bench.finish(&mut out, &tracer)?;
        out.metrics = metrics::per_layer(
            bench.layers(&tracer),
            &plain,
            &traced,
            &wide,
            &sunk,
            default_lanes,
        );
        let path = std::path::Path::new("perfbench")
            .join("out")
            .join(format!("{}-seed{}.trace.jsonl", args.workload, args.seed));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("could not write {}: {e}", path.display());
        }
        measured = plain
            .into_iter()
            .chain(traced)
            .chain([wide, sunk])
            .collect();
    } else {
        let timed = rounds(&mut bench, &untraced, args.seconds, 2)?;
        out.check(
            "digest repeats across rounds",
            digests_agree(warm.digest, &timed, "round"),
        );
        let quality = bench.finish(&mut out, &untraced)?;
        out.metrics = metrics::end_to_end(&setup_s, &timed, &quality)?;
        measured = timed;
    }
    out.check(
        "metric names match [A-Za-z0-9_.-]+",
        match out
            .metrics
            .iter()
            .find(|m| !stats::valid_metric_name(m.name))
        {
            None => Ok(()),
            Some(m) => Err(format!("bad metric name {:?}", m.name)),
        },
    );
    out.attempted = measured.iter().map(Round::attempted).sum();
    out.failed = measured.iter().map(Round::failed).sum();
    Ok(out)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let result = match args.workload.as_str() {
        "offline-place" => run::<offline::OfflinePlace>(&args),
        "online-churn" => run::<online::OnlineChurn>(&args),
        "daemon-http" => run::<daemon::DaemonHttp>(&args),
        other => Err(format!(
            "unknown workload {other:?} (offline-place, online-churn, daemon-http)"
        )),
    };
    match result {
        Ok(out) => {
            for line in out.report_lines() {
                println!("{line}");
            }
            println!("{}", out.to_json());
            if !out.correct() {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    }
}
