//! `smoothop` — command-line front end for the SmoothOperator library.
//!
//! `smoothop help` lists every command and flag; both are declared once,
//! in [`smoothoperator::cli`].

use std::process::ExitCode;
use std::sync::Arc;

use smoothoperator::cli::{self, Args};
use smoothoperator::prelude::*;
use so_faults::{FaultKind, FaultSchedule, FaultSpec};
use so_oracles::{run_battery, BatteryConfig, OracleFamily};
use so_powertree::NodeAggregates;
use so_reshape::{operate, run_scenario, LongRunConfig, ThrottleBoostPolicy};
use so_sim::{default_config, one_week_grid, simulate_with_faults, FailSafe};
use so_telemetry::RecordingSink;
use so_workloads::OfferedLoad;

fn main() -> ExitCode {
    let result = cli::parse(std::env::args().skip(1))
        .map_err(Into::into)
        .and_then(|args| run(&args));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> CliResult {
    if let Some(lanes) = positive(args, "--threads")? {
        so_parallel::set_thread_limit(lanes);
    }
    // A recording sink is bound when any command asked for exported
    // telemetry, always for `report` (whose output *is* the metrics), and
    // whenever a plane is served (`--listen`, `serve`): the plane serves
    // `/metrics` from the same sink the engine gauges land in.
    let wants_sink = args.has("--metrics-out")
        || args.has("--trace-out")
        || args.has("--listen")
        || matches!(args.command.name, "report" | "serve");
    if !wants_sink {
        return dispatch(args, None);
    }
    let sink = Arc::new(RecordingSink::with_wall_clock());
    so_telemetry::with_sink(sink.clone(), || dispatch(args, Some(&sink)))?;
    write_telemetry(&sink, args)
}

fn dispatch(args: &Args, sink: Option<&Arc<RecordingSink>>) -> CliResult {
    match args.command.name {
        "scenarios" => scenarios(),
        "breakdown" => with_scenario(args, breakdown),
        "place" => with_scenario(args, place),
        "pipeline" => with_scenario(args, pipeline),
        "longrun" => with_scenario(args, longrun),
        "dot" => with_scenario(args, dot),
        "simulate" => {
            let faults = match args.value("--faults") {
                Some(raw) => FaultSpec::parse(raw)?,
                None => FaultSpec::none(),
            };
            faults.validate()?;
            with_scenario(args, |scenario, n| simulate_cmd(scenario, n, &faults))
        }
        "check" => check_cmd(args),
        "scale" => scale_cmd(args),
        "plan" => plan_cmd(args),
        "online" => online_cmd(args, sink),
        "serve" => serve_cmd(args, sink),
        "daemon" => daemon_cmd(args),
        "report" => with_scenario(args, |scenario, n| {
            report_cmd(scenario, n, sink.expect("report always binds a sink"))
        }),
        "help" => {
            print!("{}", cli::usage());
            Ok(())
        }
        other => unreachable!("`{other}` is declared in cli::COMMANDS but has no handler"),
    }
}

/// Writes the export files requested for the recorded telemetry.
fn write_telemetry(sink: &RecordingSink, args: &Args) -> CliResult {
    if let Some(path) = args.value("--metrics-out") {
        std::fs::write(path, sink.prometheus())
            .map_err(|e| format!("cannot write metrics to `{path}`: {e}"))?;
        eprintln!("wrote Prometheus metrics snapshot to {path}");
    }
    if let Some(path) = args.value("--trace-out") {
        std::fs::write(path, sink.jsonl())
            .map_err(|e| format!("cannot write trace events to `{path}`: {e}"))?;
        eprintln!("wrote JSON-lines span/event log to {path}");
    }
    Ok(())
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

/// The value of a count flag that must be at least 1, if given.
fn positive(args: &Args, flag: &str) -> Result<Option<usize>, String> {
    match args.get(flag)? {
        Some(0) => Err(format!("{flag} must be at least 1")),
        n => Ok(n),
    }
}

/// The optional fleet-size positional at `index`, `default` when absent.
fn fleet_size(args: &Args, index: usize, default: usize) -> Result<usize, String> {
    let n = match args.positionals.get(index) {
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("fleet size `{raw}` is not a number"))?,
        None => default,
    };
    if n == 0 {
        return Err("fleet size must be positive".into());
    }
    Ok(n)
}

/// Runs the seeded oracle battery and fails the process on any violation.
fn check_cmd(args: &Args) -> CliResult {
    let config = BatteryConfig {
        seed: args.get("--seed")?.unwrap_or(7),
        instances: fleet_size(args, 0, 1000)?,
    };
    let outcome = run_battery(&config)?;
    println!(
        "oracle battery — {} fleet of {} instances, seed {}",
        outcome.scenario, outcome.instances, outcome.seed
    );
    for family in OracleFamily::ALL {
        println!(
            "  {:<13} {:>6} evaluations, {:>3} violations",
            family.label(),
            outcome.report.evaluations(family),
            outcome.report.violations_in(family)
        );
    }
    if outcome.report.is_clean() {
        println!(
            "  all {} oracle evaluations passed",
            outcome.report.total_evaluations()
        );
        Ok(())
    } else {
        for violation in outcome.report.violations().iter().take(20) {
            eprintln!("  violation: {violation}");
        }
        Err(format!("{} oracle violation(s)", outcome.report.violations().len()).into())
    }
}

/// Runs the columnar scale ladder and writes `BENCH_scale.json`.
fn scale_cmd(args: &Args) -> CliResult {
    use smoothoperator::scale::{run_scale, QuantileMode, ScaleConfig, ScaleWorkload};

    let mut config = ScaleConfig::default();
    args.set("--seed", &mut config.seed)?;
    if let Some(instances) = args.list("--instances")? {
        config.instances = instances;
    }
    if let Some(raw) = args.value("--quantiles") {
        config.quantile_mode = QuantileMode::parse(raw)
            .ok_or_else(|| format!("--quantiles must be `exact` or `sketch`, got `{raw}`"))?;
    }
    if let Some(raw) = args.value("--workload") {
        config.workload = ScaleWorkload::parse(raw)
            .ok_or_else(|| format!("--workload must be `diurnal` or `llm`, got `{raw}`"))?;
    }
    args.set("--chunk-rows", &mut config.chunk_rows)?;
    let path = args.value("--out").unwrap_or("BENCH_scale.json");

    println!(
        "scale ladder — {} points, {} {} samples/trace, groups of {}, seed {}, {} quantiles, {} rows/chunk, {} thread lane(s)",
        config.instances.len(),
        config.workload.as_str(),
        config.samples_per_trace,
        config.group_size,
        config.seed,
        config.quantile_mode.as_str(),
        config.effective_chunk_rows(),
        so_parallel::effective_lanes(),
    );
    println!(
        "{:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>12} {:>10}",
        "instances", "synth", "peaks", "p99", "agg", "swaps", "rows/s", "rss"
    );
    let report = run_scale(&config)?;
    for p in &report.points {
        let rss = match p.peak_rss_bytes {
            Some(bytes) => format!("{}MB", bytes / (1024 * 1024)),
            None => "n/a".to_string(),
        };
        println!(
            "{:>10} {:>8.0}ms {:>8.0}ms {:>8.0}ms {:>8.0}ms {:>8.0}ms {:>12.0} {:>10}",
            p.instances,
            p.synth_ms,
            p.row_peaks_ms,
            p.quantiles_ms,
            p.aggregation_ms,
            p.swap_probe_ms,
            p.rows_per_sec,
            rss,
        );
    }
    let json = report.to_json();
    std::fs::write(path, &json).map_err(|e| format!("cannot write `{path}`: {e}"))?;
    println!("wrote {path} ({} bytes)", json.len());
    Ok(())
}

/// Runs the capacity-planning sweep and writes `BENCH_plan.json`.
fn plan_cmd(args: &Args) -> CliResult {
    use smoothoperator::plan::{run_plan, PlanConfig, PlanWorkload, PLAN_HEADROOM};

    let mut config = PlanConfig::default();
    args.set("--seed", &mut config.seed)?;
    args.set("--base", &mut config.base_instances)?;
    args.set("--racks", &mut config.max_racks)?;
    if let Some(deltas) = args.list("--deltas")? {
        config.deltas = deltas;
    }
    if let Some(raw) = args.value("--workloads") {
        config.workloads = raw
            .split(',')
            .map(|part| {
                PlanWorkload::parse(part.trim())
                    .ok_or_else(|| format!("workload `{part}` is not `web-mix` or `llm-mix`"))
            })
            .collect::<Result<Vec<PlanWorkload>, String>>()?;
    }
    args.set("--budget", &mut config.budget_watts)?;
    let path = args.value("--out").unwrap_or("BENCH_plan.json");

    println!(
        "capacity plan — base {} instances, up to {} racks × {} slots, seed {}, {} thread lane(s)",
        config.base_instances,
        config.max_racks,
        config.rack_slots,
        config.seed,
        so_parallel::effective_lanes(),
    );
    let report = run_plan(&config)?;
    for p in &report.points {
        if config.budget_watts > 0.0 {
            println!(
                "{}: budget {:.0} W (explicit), base peak {:.0} W",
                p.workload.as_str(),
                p.budget_watts,
                p.base_peak_watts,
            );
        } else {
            println!(
                "{}: budget {:.0} W (base StatProf requirement {:.0} W + {:.0}% headroom), base peak {:.0} W",
                p.workload.as_str(),
                p.budget_watts,
                p.base_sum_of_peaks_watts,
                100.0 * PLAN_HEADROOM,
                p.base_peak_watts,
            );
        }
        println!(
            "  {:>6} {:>14} {:>14} {:>16} {:>16}",
            "δ", "statprof-fit", "smoothop-fit", "statprof-strand", "smoothop-strand"
        );
        for f in &p.fits {
            println!(
                "  {:>6.2} {:>14} {:>14} {:>14.0} W {:>14.0} W",
                f.delta,
                f.statprof_racks_fit,
                f.smoothoperator_racks_fit,
                f.statprof_stranded_watts,
                f.smoothoperator_stranded_watts,
            );
        }
    }
    let json = report.to_json();
    std::fs::write(path, &json).map_err(|e| format!("cannot write `{path}`: {e}"))?;
    println!("wrote {path} ({} bytes)", json.len());
    Ok(())
}

/// Builds the live plane for `online` and `serve` sessions over the
/// bound recording sink (so engine gauges land on `/metrics`).
fn live_plane(capacity: usize, sink: Option<&Arc<RecordingSink>>) -> Arc<so_telemetry::LivePlane> {
    let sink = sink
        .cloned()
        .unwrap_or_else(|| Arc::new(RecordingSink::with_wall_clock()));
    Arc::new(so_telemetry::LivePlane::new(
        sink,
        capacity,
        so_telemetry::default_online_rules(),
    ))
}

/// The flight-recorder ring capacity, `--flight-capacity` or 4096.
fn flight_capacity(args: &Args) -> Result<usize, String> {
    Ok(positive(args, "--flight-capacity")?.unwrap_or(4_096))
}

/// Runs the online arrival/departure rung and writes
/// `BENCH_online.json`. Any of the live flags attaches an observability
/// plane: `--listen` serves it over HTTP while the rung runs,
/// `--watch-out` writes the rung's JSONL stream, and `--flight-out`
/// dumps its flight ring on exit.
fn online_cmd(args: &Args, sink: Option<&Arc<RecordingSink>>) -> CliResult {
    use smoothoperator::scale::{run_online_scale, OnlineScaleConfig};

    let mut config = OnlineScaleConfig::default();
    args.set("--seed", &mut config.seed)?;
    if let Some(instances) = args.list("--instances")? {
        config.instances = instances;
    }
    args.set("--batches", &mut config.batches)?;
    args.set("--probes", &mut config.sample_probes)?;
    args.set("--repair", &mut config.repair_budget)?;
    config.plant_violation = args.has("--plant-violation");
    let path = args.value("--out").unwrap_or("BENCH_online.json");
    let capacity = flight_capacity(args)?;
    let watch_out = args.value("--watch-out");
    let live = args.has("--listen") || watch_out.is_some() || args.has("--flight-out");
    let plane = live.then(|| live_plane(capacity, sink));
    let server = match (args.value("--listen"), &plane) {
        (Some(addr), Some(plane)) => {
            let server = so_telemetry::MetricsServer::spawn(addr, plane.clone())
                .map_err(|e| format!("cannot listen on `{addr}`: {e}"))?;
            eprintln!(
                "serving /metrics /health /alerts /flight on http://{}",
                server.addr()
            );
            Some(server)
        }
        _ => None,
    };

    println!(
        "online rung — {} points, {} batches, {} probes/arrival, repair budget {}, seed {}, {} thread lane(s)",
        config.instances.len(),
        config.batches,
        config.sample_probes,
        config.repair_budget,
        config.seed,
        so_parallel::effective_lanes(),
    );
    println!(
        "{:>10} {:>10} {:>10} {:>10} {:>10} {:>12} {:>9} {:>9} {:>11} {:>11} {:>6}",
        "instances",
        "arrive",
        "retire",
        "repair",
        "offline",
        "rows/s",
        "async",
        "off-asy",
        "headroom W",
        "off-hdr W",
        "frag"
    );
    let mut stream = String::new();
    let report = run_online_scale(&config, plane.clone(), |line| {
        if watch_out.is_some() {
            stream.push_str(line);
            stream.push('\n');
        }
    });
    if let Some(server) = server {
        server.shutdown();
    }
    let report = report?;
    for p in &report.points {
        println!(
            "{:>10} {:>8.0}ms {:>8.0}ms {:>8.0}ms {:>8.0}ms {:>12.0} {:>9.4} {:>9.4} {:>11.1} {:>11.1} {:>6.3} {:>6}",
            p.instances,
            p.arrive_ms,
            p.retire_ms,
            p.repair_ms,
            p.offline_ms,
            p.rows_per_sec,
            p.online_mean_asynchrony,
            p.offline_mean_asynchrony,
            p.online_min_rack_headroom_watts,
            p.offline_min_rack_headroom_watts,
            p.rack_fragmentation_ratio,
            p.alerts_fired,
        );
    }
    if let Some(path) = watch_out {
        std::fs::write(path, &stream).map_err(|e| format!("cannot write `{path}`: {e}"))?;
        eprintln!(
            "wrote online JSONL stream to {path} ({} bytes)",
            stream.len()
        );
    }
    if let Some(plane) = &plane {
        write_flight(args, plane)?;
    }
    let json = report.to_json();
    std::fs::write(path, &json).map_err(|e| format!("cannot write `{path}`: {e}"))?;
    println!("wrote {path} ({} bytes)", json.len());
    Ok(())
}

/// Runs the resident placement daemon until `POST /shutdown` (or the
/// TTL), serving ingest, queries, and the scrape surface on one port.
fn serve_cmd(args: &Args, sink: Option<&Arc<RecordingSink>>) -> CliResult {
    use smoothoperator::serve::{run_serve, ServeConfig};

    let mut config = ServeConfig::default();
    args.set("--listen", &mut config.listen)?;
    args.set("--seed", &mut config.seed)?;
    args.set("--instances", &mut config.instances)?;
    args.set("--probes", &mut config.sample_probes)?;
    args.set("--repair", &mut config.repair_budget)?;
    args.set("--repair-interval-ms", &mut config.repair_interval_ms)?;
    config.ttl_ms = args.get("--ttl-ms")?;

    let plane = live_plane(flight_capacity(args)?, sink);
    eprintln!(
        "smoothopd — {} instances resident, window {}, repair budget {} every {}ms, seed {}",
        config.instances,
        config.samples_per_trace,
        config.repair_budget,
        config.repair_interval_ms,
        config.seed,
    );
    // The announce line goes to stdout so scripts can parse the bound
    // (possibly ephemeral) address without scraping stderr.
    let outcome = run_serve(&config, plane.clone(), |line| println!("{line}"))?;
    write_flight(args, &plane)?;
    eprintln!(
        "smoothopd done — {} batches / {} samples ingested ({} dropped), {} live, {} committed, {} rejected, {} retired, {} repair pass(es)",
        outcome.batches_ingested,
        outcome.samples_ingested,
        outcome.samples_dropped,
        outcome.live_instances,
        outcome.committed,
        outcome.rejected,
        outcome.retired,
        outcome.repair_passes,
    );
    Ok(())
}

/// Runs the daemon ingest load rung and writes `BENCH_daemon.json`.
fn daemon_cmd(args: &Args) -> CliResult {
    use smoothoperator::serve::{run_daemon_scale, DaemonScaleConfig};

    let mut config = DaemonScaleConfig::default();
    args.set("--seed", &mut config.seed)?;
    if let Some(instances) = args.list("--instances")? {
        config.instances = instances;
    }
    // The daemon rung's unit of work is one full fleet sweep.
    args.set("--batches", &mut config.sweeps)?;
    args.set("--probes", &mut config.sample_probes)?;
    args.set("--repair", &mut config.repair_budget)?;
    let path = args.value("--out").unwrap_or("BENCH_daemon.json");

    println!(
        "daemon rung — {} points, {} sweeps of {}-slot batches, {} samples/window, seed {}, {} thread lane(s)",
        config.instances.len(),
        config.sweeps,
        config.batch_slots,
        config.samples_per_trace,
        config.seed,
        so_parallel::effective_lanes(),
    );
    println!(
        "{:>10} {:>10} {:>10} {:>10} {:>10} {:>12} {:>9} {:>9} {:>10}",
        "instances", "seed", "ingest", "query", "repair", "samples/s", "p50 µs", "p99 µs", "rss"
    );
    let report = run_daemon_scale(&config)?;
    for p in &report.points {
        let rss = match p.peak_rss_bytes {
            Some(bytes) => format!("{}MB", bytes / (1024 * 1024)),
            None => "n/a".to_string(),
        };
        println!(
            "{:>10} {:>8.0}ms {:>8.0}ms {:>8.0}ms {:>8.0}ms {:>12.0} {:>9.1} {:>9.1} {:>10}",
            p.instances,
            p.seed_ms,
            p.ingest_ms,
            p.query_ms,
            p.repair_ms,
            p.rows_per_sec,
            p.ingest_p50_us,
            p.ingest_p99_us,
            rss,
        );
    }
    let json = report.to_json();
    std::fs::write(path, &json).map_err(|e| format!("cannot write `{path}`: {e}"))?;
    println!("wrote {path} ({} bytes)", json.len());
    Ok(())
}

/// Writes the plane's full flight ring as JSONL when `--flight-out` was
/// requested.
fn write_flight(args: &Args, plane: &so_telemetry::LivePlane) -> CliResult {
    let Some(path) = args.value("--flight-out") else {
        return Ok(());
    };
    let jsonl = plane.flight_jsonl(0);
    std::fs::write(path, &jsonl).map_err(|e| format!("cannot write `{path}`: {e}"))?;
    eprintln!(
        "wrote flight recorder JSONL to {path} ({} bytes)",
        jsonl.len()
    );
    Ok(())
}

fn with_scenario(args: &Args, f: impl FnOnce(DcScenario, usize) -> CliResult) -> CliResult {
    let dc = args
        .positionals
        .first()
        .ok_or("missing datacenter argument (dc1|dc2|dc3)")?;
    let scenario = match dc.as_str() {
        "dc1" | "DC1" => DcScenario::dc1(),
        "dc2" | "DC2" => DcScenario::dc2(),
        "dc3" | "DC3" => DcScenario::dc3(),
        other => return Err(format!("unknown datacenter `{other}` (dc1|dc2|dc3)").into()),
    };
    f(scenario, fleet_size(args, 1, 240)?)
}

fn simulate_cmd(scenario: DcScenario, n: usize, faults: &FaultSpec) -> CliResult {
    // Size the simulated cluster from the fleet: half the servers serve LC
    // at peak, half run batch, with reshaping pools on top (§4.2 roles).
    let base_lc = (n / 2).max(1);
    let base_batch = (n - base_lc).max(1);
    let conversion = (n / 10).max(1);
    let throttle_funded = (n / 20).max(1);
    let config = default_config(base_lc, base_batch, conversion, throttle_funded, f64::MAX);

    let load = OfferedLoad::diurnal(
        one_week_grid(60),
        base_lc as f64 * config.qps_per_server * config.l_conv * 1.15,
        0.05,
        scenario.name.len() as u64, // stable per-scenario seed
    );
    let schedule = FaultSchedule::generate(faults, load.len(), base_lc);
    let mut policy = FailSafe::new(ThrottleBoostPolicy::default());
    let telemetry = simulate_with_faults(&config, &load, &mut policy, &schedule)?;

    println!(
        "{} — one simulated week ({} LC + {} batch + {} conv + {} e_th servers):",
        scenario.name, base_lc, base_batch, conversion, throttle_funded
    );
    println!(
        "  LC served:      {:>12.0} qps-steps ({:.2}% dropped)",
        telemetry.total_lc_served(),
        100.0 * telemetry.lc_dropped_qps.iter().sum::<f64>() / telemetry.total_lc_served().max(1.0)
    );
    println!(
        "  batch work:     {:>12.0} normalized-server-steps",
        telemetry.total_batch_work()
    );
    println!("  peak power:     {:>12.0} W", telemetry.peak_power());
    println!(
        "  QoS-risk steps: {:>12} of {}",
        telemetry.qos_risk_steps(config.l_conv),
        telemetry.len()
    );
    if faults.is_none() {
        println!("  faults:         none injected (pass --faults <spec> to inject)");
    } else {
        println!(
            "  faults:         {} events injected, {} of {} steps degraded",
            telemetry.fault_events.len(),
            telemetry.degraded_steps(),
            telemetry.len()
        );
        for kind in [
            FaultKind::SensorDropout,
            FaultKind::StuckSensor,
            FaultKind::InstanceCrash,
            FaultKind::BreakerTrip,
        ] {
            let count = telemetry
                .fault_events
                .iter()
                .filter(|e| e.kind == kind)
                .count();
            if count > 0 {
                println!("    {:<16} {count}", kind.label());
            }
        }
    }
    Ok(())
}

/// Runs an instrumented end-to-end pass — placement, fragmentation
/// analysis, drift observation, remapping, and one simulated week — and
/// prints the recorded metrics as a grouped run report.
fn report_cmd(scenario: DcScenario, n: usize, sink: &RecordingSink) -> CliResult {
    let fleet = scenario.generate_fleet(n)?;
    let topo = fitting_topology(n, 12)?;

    // Placement (records spans, per-level fragmentation gauges, k-means
    // and embedding counters).
    let mut assignment = SmoothPlacer::default().place(&fleet, &topo)?;

    // Drift monitoring against the test week (records per-level gauges).
    let monitor =
        so_core::DriftMonitor::baseline(&topo, &assignment, fleet.averaged_traces(), 0.05)?;
    monitor.observe(&topo, &assignment, fleet.test_traces())?;

    // Remapping (records swap counters, gain histogram, score gauges).
    so_core::remap(
        &fleet,
        &topo,
        &mut assignment,
        so_core::RemapConfig::default(),
    )?;

    // One simulated week of runtime reshaping (records per-step power and
    // headroom histograms plus DVFS/conversion counters).
    let base_lc = (n / 2).max(1);
    let base_batch = (n - base_lc).max(1);
    let config = default_config(
        base_lc,
        base_batch,
        (n / 10).max(1),
        (n / 20).max(1),
        350.0 * n as f64,
    );
    let load = OfferedLoad::diurnal(
        one_week_grid(60),
        base_lc as f64 * config.qps_per_server * config.l_conv * 1.15,
        0.05,
        scenario.name.len() as u64,
    );
    let schedule = FaultSchedule::generate(&FaultSpec::none(), load.len(), base_lc);
    let mut policy = FailSafe::new(ThrottleBoostPolicy::default());
    simulate_with_faults(&config, &load, &mut policy, &schedule)?;

    println!("{} ({n} instances) — instrumented run:", scenario.name);
    println!();
    print!("{}", so_telemetry::render_report(&sink.snapshot()));
    Ok(())
}

fn scenarios() -> CliResult {
    for sc in DcScenario::all() {
        println!(
            "{}: {} services, phase jitter σ {:.0} min, amplitude σ {:.2}, baseline mixing {:.0}%",
            sc.name,
            sc.mix.len(),
            sc.phase_jitter_sd_minutes,
            sc.amplitude_sd,
            100.0 * sc.baseline_mixing
        );
        for (service, fraction) in &sc.mix {
            println!("    {service:<14} {:.0}%", fraction * 100.0);
        }
    }
    Ok(())
}

fn breakdown(scenario: DcScenario, n: usize) -> CliResult {
    let fleet = scenario.generate_fleet(n)?;
    println!(
        "{} ({} instances) — power share by service:",
        scenario.name, n
    );
    for (rank, (service, share)) in fleet.power_share_by_service().iter().enumerate() {
        println!(
            "  {:>2}. {:<14} {:>5.1}%",
            rank + 1,
            service.to_string(),
            100.0 * share
        );
    }
    println!(
        "
{:<14} {:>5} {:>9} {:>9} {:>10} {:>12} {:>9}",
        "service", "n", "mean W", "peak W", "peak hour", "seasonality", "peak CV"
    );
    for p in so_workloads::profile_services(&fleet)? {
        println!(
            "{:<14} {:>5} {:>9.1} {:>9.1} {:>9.1}h {:>11.0}% {:>9.2}",
            p.service.to_string(),
            p.instances,
            p.mean_watts,
            p.peak_watts,
            p.peak_hour(),
            100.0 * p.seasonality,
            p.peak_cv,
        );
    }
    Ok(())
}

fn place(scenario: DcScenario, n: usize) -> CliResult {
    let fleet = scenario.generate_fleet(n)?;
    let topo = fitting_topology(n, 12)?;
    let historical = oblivious_placement(&fleet, &topo, scenario.baseline_mixing, 0xB4_5E)?;
    let smooth = SmoothPlacer::default().place(&fleet, &topo)?;

    let test = fleet.test_traces();
    let before = NodeAggregates::compute(&topo, &historical, test)?;
    let after = NodeAggregates::compute(&topo, &smooth, test)?;

    println!(
        "{} ({n} instances on {} racks) — sum-of-peaks reduction (test week):",
        scenario.name,
        topo.racks().len()
    );
    for level in [Level::Suite, Level::Msb, Level::Sb, Level::Rpp, Level::Rack] {
        let b = before.sum_of_peaks(&topo, level);
        let a = after.sum_of_peaks(&topo, level);
        println!(
            "  {:<6} {:>8.0} W -> {:>8.0} W   ({:>5.1}%)",
            level.to_string(),
            b,
            a,
            100.0 * (b - a) / b
        );
    }
    Ok(())
}

fn longrun(scenario: DcScenario, n: usize) -> CliResult {
    let fleet = scenario.generate_fleet(n)?;
    let topo = fitting_topology(n, 12)?;
    let placement = SmoothPlacer::default().place(&fleet, &topo)?;
    let report = operate(&fleet, &topo, &placement, &LongRunConfig::default())?;
    println!(
        "{} ({n} instances) — {} weeks of drift:",
        scenario.name,
        report.weeks.len()
    );
    for w in &report.weeks {
        println!(
            "  week {:>2}: frozen {:>8.0} W, managed {:>8.0} W{}{}",
            w.week,
            w.static_sum_of_peaks,
            w.managed_sum_of_peaks,
            if w.flagged { "  [flagged]" } else { "" },
            if w.swaps > 0 {
                format!("  ({} swaps)", w.swaps)
            } else {
                String::new()
            },
        );
    }
    println!(
        "  mean managed advantage: {:.2}% ({} swaps total)",
        100.0 * report.mean_managed_advantage(),
        report.total_swaps()
    );
    Ok(())
}

fn dot(scenario: DcScenario, n: usize) -> CliResult {
    let fleet = scenario.generate_fleet(n)?;
    let topo = fitting_topology(n, 12)?;
    let placement = SmoothPlacer::default().place(&fleet, &topo)?;
    let agg = NodeAggregates::compute(&topo, &placement, fleet.test_traces())?;
    let peaks: Vec<f64> = (0..topo.len())
        .map(|i| agg.peak(NodeId::new(i)))
        .collect::<Result<_, _>>()?;
    print!("{}", so_powertree::to_dot(&topo, Some(&peaks))?);
    Ok(())
}

fn pipeline(scenario: DcScenario, n: usize) -> CliResult {
    let topo = fitting_topology(n, 12)?;
    let outcome = run_scenario(&scenario, n, &topo, &PipelineConfig::default())?;
    println!("{} ({n} instances) — reshaping pipeline:", outcome.name);
    println!(
        "  RPP peak reduction:   {:>5.1}%",
        100.0 * outcome.rpp_peak_reduction
    );
    println!(
        "  extra servers:        {} conversion + {} throttle-funded (L_conv {:.2})",
        outcome.extra_conversion, outcome.extra_throttle_funded, outcome.l_conv
    );
    println!(
        "  conversion:           LC {:>+5.1}%  Batch {:>+5.1}%",
        100.0 * outcome.lc_improvement(&outcome.conversion),
        100.0 * outcome.batch_improvement(&outcome.conversion)
    );
    println!(
        "  + throttle/boost:     LC {:>+5.1}%  Batch {:>+5.1}%",
        100.0 * outcome.lc_improvement(&outcome.throttle_boost),
        100.0 * outcome.batch_improvement(&outcome.throttle_boost)
    );
    println!(
        "  energy slack:         avg -{:.1}%, off-peak -{:.1}%",
        100.0 * outcome.avg_slack_reduction(&outcome.throttle_boost)?,
        100.0 * outcome.off_peak_slack_reduction(&outcome.throttle_boost)?
    );
    Ok(())
}
