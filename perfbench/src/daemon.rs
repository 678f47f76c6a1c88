//! `daemon-http`: a collector's closed loop against smoothopd over
//! loopback, one connection at a time.
//!
//! Set-up seeds a resident fleet with `build_daemon` and serves
//! `route_daemon` from an `HttpServer` whose handler the benchmark owns
//! (it times each route call). A round restores the seeded fleet and
//! sends a fixed, seeded request mix: `POST /ingest` batches (half the
//! readings rack-local, PDU-style; half scattered, per-machine), reads of the same
//! aggregates (`/headroom`, `/asynchrony`, `/admit`, `/whatif`), periodic
//! `/metrics` scrapes, occasional `/arrive` and `/retire`, and `/repair`
//! at fixed request indices, so the final state is deterministic. One
//! ingest request is the unit operation; the reads are the queries.

use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use smoothoperator::serve::{build_daemon, route_daemon, ServeConfig};
use so_core::{CommitPolicy, DaemonFleet, SampleUpdate};
use so_powertrace::PowerTrace;
use so_telemetry::{HttpRequest, HttpServer, LivePlane};

use crate::inputs::{mix, Draws, Waves};
use crate::metrics::{layer, mean_span};
use crate::online::{
    check_aggregates, fleet_quality, headless_plane, wave_trace, PROBES, SAMPLES, STEP_MINUTES,
};
use crate::stats::{Digest, Metric, Outcome};
use crate::trace::Tracer;
use crate::{Bench, Quality, Round};

/// Instances seeded before serving.
const SEED_INSTANCES: usize = 1_000;
/// Requests per round.
const REQUESTS: usize = 1_200;
/// Racks per rack-local (PDU-style) ingest batch: 192 readings.
const PDU_RACKS: usize = 16;
/// Machines per scattered (per-machine) ingest batch.
const SCATTERED: usize = 48;
/// Every this many ingest batches, one is rack-local and the rest are
/// scattered, so each kind carries half of the readings. The batch count
/// is lopsided on purpose: with equal counts of two batch kinds of
/// different cost, the median batch latency would sit between the two
/// kinds and jump between them from run to run.
const INGEST_CYCLE: usize = 1 + PDU_RACKS * 12 / SCATTERED;

/// One scripted request.
#[derive(Debug, Clone)]
enum Req {
    Ingest {
        updates: Vec<SampleUpdate>,
        body: String,
    },
    Query(String),
    Scrape,
    Arrive {
        trace: PowerTrace,
        body: String,
    },
    Retire(usize),
    Repair,
}

impl Req {
    fn class(&self) -> &'static str {
        match self {
            Req::Ingest { .. } => "serve.route_ingest",
            Req::Query(_) => "serve.route_query",
            Req::Scrape => "serve.route_scrape",
            Req::Arrive { .. } | Req::Retire(_) | Req::Repair => "serve.route_mutate",
        }
    }

    fn http(&self) -> (&'static str, String, &str) {
        match self {
            Req::Ingest { body, .. } => ("POST", "/ingest".into(), body.as_str()),
            Req::Query(target) => ("GET", target.clone(), ""),
            Req::Scrape => ("GET", "/metrics".into(), ""),
            Req::Arrive { body, .. } => ("POST", "/arrive".into(), body.as_str()),
            Req::Retire(slot) => ("POST", format!("/retire?slot={slot}"), ""),
            Req::Repair => ("POST", "/repair".into(), ""),
        }
    }
}

extern "C" {
    fn setsockopt(fd: i32, level: i32, name: i32, value: *const LingerOpt, len: u32) -> i32;
}

/// `struct linger` of `<sys/socket.h>`.
#[repr(C)]
struct LingerOpt {
    onoff: i32,
    seconds: i32,
}

/// Makes closing `stream` abortive (`SO_LINGER` 0). The client closes
/// only after the server's FIN, so no reply is lost; without this every
/// request would leave a TIME_WAIT entry for 60 s, and a run's thousands
/// of them slow later connects by an amount that depends on how recently
/// the previous run ended.
fn close_without_time_wait(stream: &TcpStream) {
    use std::os::unix::io::AsRawFd;
    const SOL_SOCKET: i32 = 1;
    const SO_LINGER: i32 = 13;
    let opt = LingerOpt {
        onoff: 1,
        seconds: 0,
    };
    // SAFETY: the fd is open for the lifetime of `stream`, and `opt` is a
    // valid `struct linger` of the size passed.
    unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_LINGER,
            &opt,
            std::mem::size_of::<LingerOpt>() as u32,
        );
    }
}

/// Sends one request on a fresh connection; returns the status and body.
fn send(addr: SocketAddr, method: &str, target: &str, body: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let _ = stream.set_nodelay(true);
    close_without_time_wait(&stream);
    let request = format!(
        "{method} {target} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let mut reply = String::new();
    stream
        .read_to_string(&mut reply)
        .map_err(|e| format!("read: {e}"))?;
    let status = reply
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("no status line in {reply:?}"))?;
    let body = reply
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .ok_or("no header terminator")?;
    Ok((status, body))
}

/// A number field of a flat JSON object.
pub fn json_field(body: &str, key: &str) -> Option<f64> {
    let pattern = format!("\"{key}\":");
    let rest = &body[body.find(&pattern)? + pattern.len()..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// A reply is good when it is 2xx and its body is a JSON object (or, for
/// `/metrics`, Prometheus text).
pub fn check_reply(status: u16, body: &str, scrape: bool) -> Result<(), String> {
    if !(200..300).contains(&status) {
        return Err(format!("status {status}: {}", body.trim()));
    }
    let parseable = if scrape {
        body.lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .all(|l| {
                l.rsplit(' ')
                    .next()
                    .is_some_and(|v| v.parse::<f64>().is_ok())
            })
    } else {
        let t = body.trim();
        t.starts_with('{') && t.ends_with('}') && t.matches('{').count() == t.matches('}').count()
    };
    if parseable {
        Ok(())
    } else {
        Err(format!("unparseable body {:?}", body.trim()))
    }
}

/// Counters `GET /fleet` must report after a round.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FleetCounters {
    /// Live instances.
    pub live_instances: f64,
    /// Arrivals committed.
    pub committed: f64,
    /// Instances retired.
    pub retired: f64,
    /// Samples written.
    pub samples_ingested: f64,
    /// Samples dropped.
    pub samples_dropped: f64,
    /// Ingest batches applied.
    pub batches_ingested: f64,
}

impl FleetCounters {
    fn of(daemon: &DaemonFleet) -> Self {
        let f = daemon.fleet();
        Self {
            live_instances: f.live_len() as f64,
            committed: f.committed() as f64,
            retired: f.retired() as f64,
            samples_ingested: daemon.samples_ingested() as f64,
            samples_dropped: daemon.samples_dropped() as f64,
            batches_ingested: daemon.batches_ingested() as f64,
        }
    }

    /// Parses a `GET /fleet` body.
    pub fn parse(body: &str) -> Option<Self> {
        Some(Self {
            live_instances: json_field(body, "live_instances")?,
            committed: json_field(body, "committed")?,
            retired: json_field(body, "retired")?,
            samples_ingested: json_field(body, "samples_ingested")?,
            samples_dropped: json_field(body, "samples_dropped")?,
            batches_ingested: json_field(body, "batches_ingested")?,
        })
    }
}

/// Checks the `/fleet` counters against what the round sent.
pub fn check_counters(reported: &FleetCounters, expected: &FleetCounters) -> Result<(), String> {
    if reported == expected {
        Ok(())
    } else {
        Err(format!(
            "/fleet reports {reported:?}, the round sent {expected:?}"
        ))
    }
}

/// The daemon-http workload state.
pub struct DaemonHttp {
    seed: u64,
    pristine: DaemonFleet,
    state: Arc<Mutex<DaemonFleet>>,
    routes: Arc<Mutex<Vec<(Instant, Instant)>>>,
    server: Option<HttpServer>,
    script: Vec<Req>,
    /// Counters the last round's replies say it left behind, and the
    /// `/fleet` counters it reported.
    expected: FleetCounters,
    reported: Option<FleetCounters>,
    bad_replies: Vec<String>,
}

impl Drop for DaemonHttp {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

/// Builds the seeded request script against the fleet's rack inventory.
fn script(seed: u64, daemon: &DaemonFleet, tracer: &Tracer) -> Result<Vec<Req>, String> {
    let span = tracer.start("workloads.synth", 0, 0);
    let fleet = daemon.fleet();
    let racks = fleet.topology().racks().to_vec();
    let mut inventory: Vec<Vec<usize>> = vec![Vec::new(); racks.len()];
    let mut live: Vec<usize> = fleet.live_slots();
    for &slot in &live {
        let rack = fleet.rack_of(slot).ok_or("live slot without rack")?;
        let r = racks
            .iter()
            .position(|&x| x == rack)
            .ok_or("unknown rack")?;
        inventory[r].push(slot);
    }
    let waves = Waves::new(SAMPLES);
    let mut draws = Draws::new(seed, 0xDAE7);
    // Each reading replaces the window sample of the same hour a week
    // earlier; it repeats that sample within ±5 %, as a diurnal load does.
    let mut cursor = vec![0usize; fleet.slot_count()];
    let (mut ingests, mut queries, mut arrivals) = (0usize, 0usize, 0u64);
    let mut out = Vec::with_capacity(REQUESTS);
    for i in 0..REQUESTS {
        let req = if i % 400 == 399 {
            Req::Repair
        } else if i % 25 == 12 {
            Req::Scrape
        } else if i % 100 == 20 {
            let trace = wave_trace(&waves, mix(seed, 0xA441), arrivals)?;
            arrivals += 1;
            let body = trace
                .samples()
                .iter()
                .map(|w| w.to_string())
                .collect::<Vec<_>>()
                .join(",");
            Req::Arrive { trace, body }
        } else if i % 100 == 70 {
            let slot = live.swap_remove(draws.below(live.len()));
            for members in &mut inventory {
                members.retain(|&s| s != slot);
            }
            Req::Retire(slot)
        } else if i % 2 == 0 {
            let slots: Vec<usize> = if ingests % INGEST_CYCLE == 0 {
                let first = draws.below(racks.len());
                (0..PDU_RACKS)
                    .flat_map(|k| inventory[(first + k) % racks.len()].iter().copied())
                    .collect()
            } else {
                (0..SCATTERED)
                    .map(|_| live[draws.below(live.len())])
                    .collect()
            };
            ingests += 1;
            let updates: Vec<SampleUpdate> = slots
                .into_iter()
                .map(|slot| {
                    let week_ago = fleet.row(slot)[cursor[slot]];
                    cursor[slot] = (cursor[slot] + 1) % SAMPLES;
                    SampleUpdate {
                        slot,
                        watts: week_ago * draws.range(0.95, 1.05),
                    }
                })
                .collect();
            let mut body = String::with_capacity(updates.len() * 24);
            for u in &updates {
                let _ = writeln!(body, "{} {}", u.slot, u.watts);
            }
            Req::Ingest { updates, body }
        } else {
            queries += 1;
            let watts = draws.range(100.0, 400.0);
            Req::Query(match queries % 4 {
                0 => "/headroom".to_string(),
                1 => "/asynchrony".to_string(),
                2 => format!("/admit?watts={watts}"),
                _ => format!(
                    "/whatif?rack={}&watts={watts}",
                    racks[draws.below(racks.len())].index()
                ),
            })
        };
        out.push(req);
    }
    tracer.end(span);
    Ok(out)
}

impl DaemonHttp {
    fn addr(&self) -> SocketAddr {
        self.server.as_ref().expect("server runs until drop").addr()
    }

    /// Replays the script straight into `DaemonFleet` on a copy of the
    /// seeded fleet, timing `ingest_batch`.
    fn replay(&self, tracer: &Tracer) -> Result<DaemonFleet, String> {
        let mut daemon = self.pristine.clone();
        let e = |err: so_core::CoreError| err.to_string();
        for (i, req) in self.script.iter().enumerate() {
            match req {
                Req::Ingest { updates, .. } => {
                    let span = tracer.start("daemon.ingest", 0, i as u64);
                    let report = daemon.ingest_batch(updates).map_err(e)?;
                    tracer.end(span);
                    tracer.count("daemon.sent", updates.len() as f64);
                    tracer.count("daemon.applied", report.applied as f64);
                    tracer.count("daemon.racks_touched", report.racks_touched as f64);
                }
                Req::Arrive { trace, .. } => {
                    daemon.arrive(trace).map_err(e)?;
                }
                Req::Retire(slot) => daemon.retire(*slot).map_err(e)?,
                Req::Repair => {
                    daemon.repair().map_err(e)?;
                }
                Req::Query(_) | Req::Scrape => {}
            }
        }
        Ok(daemon)
    }
}

impl Bench for DaemonHttp {
    fn setup(seed: u64, tracer: &Tracer) -> Result<Self, String> {
        let config = ServeConfig {
            listen: "127.0.0.1:0".to_string(),
            instances: SEED_INSTANCES,
            samples_per_trace: SAMPLES,
            step_minutes: STEP_MINUTES,
            seed: mix(seed, 0x5EED),
            sample_probes: PROBES,
            repair_budget: 8,
            repair_interval_ms: 0,
            ttl_ms: None,
        };
        let plane: Arc<LivePlane> = headless_plane();
        let span = tracer.start("serve.build_daemon", 0, 0);
        let pristine = build_daemon(&config, Arc::clone(&plane)).map_err(|e| e.to_string())?;
        tracer.end(span);
        let script = script(seed, &pristine, tracer)?;
        let policy = CommitPolicy::Sampling { probes: PROBES };
        let state = Arc::new(Mutex::new(pristine.clone()));
        let routes = Arc::new(Mutex::new(Vec::with_capacity(REQUESTS)));
        let handler = {
            let state = Arc::clone(&state);
            let routes = Arc::clone(&routes);
            let stop = AtomicBool::new(false);
            Arc::new(move |req: &HttpRequest| {
                crate::cpu::follow();
                let t0 = Instant::now();
                let reply = route_daemon(&state, &plane, &stop, &policy, req);
                routes
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push((t0, Instant::now()));
                reply
            })
        };
        let server = HttpServer::spawn(&config.listen, "perfbench-http", handler)
            .map_err(|e| format!("listen: {e}"))?;
        Ok(Self {
            seed,
            pristine,
            state,
            routes,
            server: Some(server),
            script,
            expected: FleetCounters::default(),
            reported: None,
            bad_replies: Vec::new(),
        })
    }

    fn round(&mut self, tracer: &Tracer) -> Result<Round, String> {
        *self.state.lock().unwrap_or_else(|e| e.into_inner()) = self.pristine.clone();
        self.routes
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
        let addr = self.addr();
        let mut round = Round::default();
        let mut digest = Digest::default();
        let mut expected = FleetCounters::of(&self.pristine);
        let mut client = Vec::with_capacity(self.script.len());
        let started = Instant::now();
        for (i, req) in self.script.iter().enumerate() {
            let (method, target, body) = req.http();
            let span = tracer.start("http.request", 0, i as u64);
            let t0 = Instant::now();
            let reply = send(addr, method, &target, body);
            let t1 = Instant::now();
            client.push((span.id(), t0, t1));
            tracer.end(span);
            let dt = (t1 - t0).as_secs_f64() * 1e3;
            let scrape = matches!(req, Req::Scrape);
            let verdict = reply
                .as_ref()
                .map_err(Clone::clone)
                .and_then(|(status, body)| check_reply(*status, body, scrape));
            let lat = match req {
                Req::Ingest { .. } => Some(&mut round.ops),
                Req::Query(_) => Some(&mut round.queries),
                _ => None,
            };
            match (&verdict, lat) {
                (Ok(()), Some(lat)) => lat.ok(dt),
                (Err(_), Some(lat)) => lat.failed(),
                (Ok(()), None) => round.other_attempted += 1,
                (Err(_), None) => {
                    round.other_attempted += 1;
                    round.other_failed += 1;
                }
            }
            if let Err(why) = verdict {
                self.bad_replies.push(format!("{method} {target}: {why}"));
                continue;
            }
            let body = reply.map(|(_, b)| b).unwrap_or_default();
            if !scrape {
                digest.bytes(body.as_bytes());
            }
            match req {
                Req::Ingest { updates, .. } => {
                    round.items += json_field(&body, "applied").unwrap_or(0.0);
                    expected.samples_ingested += updates.len() as f64;
                    expected.batches_ingested += 1.0;
                }
                Req::Arrive { .. } if !body.contains("null") => {
                    expected.committed += 1.0;
                    expected.live_instances += 1.0;
                }
                Req::Retire(_) => {
                    expected.retired += 1.0;
                    expected.live_instances -= 1.0;
                }
                _ => {}
            }
        }
        round.stream_s = started.elapsed().as_secs_f64();
        let routes = self
            .routes
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        if tracer.enabled() && routes.len() == client.len() {
            for (i, ((parent, c0, c1), (r0, r1))) in client.iter().zip(&routes).enumerate() {
                tracer.record(self.script[i].class(), *parent, i as u64, *r0, *r1);
                let overhead = (*c1 - *c0).saturating_sub(*r1 - *r0);
                tracer.count("http.overhead_ns", overhead.as_nanos() as f64);
                tracer.count("http.requests", 1.0);
            }
        }
        let (status, body) = send(addr, "GET", "/fleet", "")?;
        check_reply(status, &body, false)?;
        digest.bytes(body.as_bytes());
        self.reported = FleetCounters::parse(&body);
        self.expected = expected;
        round.digest = digest.value();
        Ok(round)
    }

    fn finish(&mut self, out: &mut Outcome, tracer: &Tracer) -> Result<Quality, String> {
        out.check(
            "every response is 2xx with a parseable body",
            match self.bad_replies.first() {
                None => Ok(()),
                Some(first) => Err(format!(
                    "{} bad replies, first: {first}",
                    self.bad_replies.len()
                )),
            },
        );
        out.check(
            "final GET /fleet counters equal what was sent",
            match &self.reported {
                Some(reported) => check_counters(reported, &self.expected),
                None => Err("unparseable /fleet body".into()),
            },
        );
        let served = self.state.lock().unwrap_or_else(|e| e.into_inner()).clone();
        let replayed = self.replay(tracer)?;
        out.check(
            "served fleet equals the same script replayed in-process",
            check_aggregates(
                served.fleet().topology(),
                served.fleet().aggregates(),
                replayed.fleet().aggregates(),
            ),
        );
        let (quality, recomputed) = fleet_quality(served.fleet(), self.seed, tracer)?;
        out.check(
            "resident aggregates equal NodeAggregates::compute over live_view",
            check_aggregates(
                served.fleet().topology(),
                served.fleet().aggregates(),
                &recomputed,
            ),
        );
        Ok(quality)
    }

    fn layers(&self, tracer: &Tracer) -> Vec<Metric> {
        let us = |name: &str| mean_span(tracer, name, 1e3);
        let (route_ingest, n_ingest) = us("serve.route_ingest");
        let (ingest, n_replay) = us("daemon.ingest");
        let requests = tracer.counter("http.requests");
        let sent = tracer.counter("daemon.sent");
        let route = |name: &'static str, metric: &'static str| {
            let (v, n) = us(name);
            layer(metric, v, n, "time inside route_daemon")
        };
        vec![
            layer(
                "workloads.synth_s",
                mean_span(tracer, "workloads.synth", 1e9).0,
                mean_span(tracer, "workloads.synth", 1e9).1,
                "request script per set-up",
            ),
            layer(
                "serve.build_daemon_s",
                mean_span(tracer, "serve.build_daemon", 1e9).0,
                mean_span(tracer, "serve.build_daemon", 1e9).1,
                "seeding per set-up",
            ),
            layer(
                "powertree.compute_s",
                mean_span(tracer, "powertree.compute", 1e9).0,
                mean_span(tracer, "powertree.compute", 1e9).1,
                "live_view recompute",
            ),
            route("serve.route_ingest", "serve.route_ingest_us"),
            route("serve.route_query", "serve.route_query_us"),
            route("serve.route_scrape", "serve.route_scrape_us"),
            route("serve.route_mutate", "serve.route_mutate_us"),
            layer(
                "http.overhead_us",
                tracer.counter("http.overhead_ns") / requests.max(1.0) / 1e3,
                requests as usize,
                "client latency minus route time",
            ),
            layer(
                "daemon.ingest_us",
                ingest,
                n_replay,
                "ingest_batch replayed in-process",
            ),
            layer(
                "daemon.parse_us",
                route_ingest - ingest,
                n_ingest,
                "route ingest minus daemon.ingest_us",
            ),
            layer(
                "daemon.racks_touched_per_batch",
                tracer.counter("daemon.racks_touched") / (n_replay.max(1) as f64),
                n_replay,
                "per replayed batch",
            ),
            layer(
                "daemon.applied_ratio",
                tracer.counter("daemon.applied") / sent.max(1.0),
                sent as usize,
                "applied over sent samples",
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_2xx_and_garbage_replies_fail() {
        assert!(check_reply(200, "{\"applied\":3}\n", false).is_ok());
        assert!(check_reply(400, "{\"error\":\"bad\"}", false).is_err());
        assert!(check_reply(500, "{}", false).is_err());
        assert!(check_reply(200, "not json", false).is_err());
        assert!(check_reply(200, "# HELP x\nx 1\ny{a=\"b\"} 2.5\n", true).is_ok());
        assert!(check_reply(200, "x one\n", true).is_err());
    }

    #[test]
    fn planted_counter_mismatch_fails() {
        let body = "{\"live_instances\":10,\"committed\":12,\"rejected\":0,\"retired\":2,\
                    \"window\":168,\"samples_ingested\":96,\"samples_dropped\":0,\
                    \"batches_ingested\":2,\"mean_rack_asynchrony\":1.2}\n";
        let reported = FleetCounters::parse(body).unwrap();
        let sent = FleetCounters {
            live_instances: 10.0,
            committed: 12.0,
            retired: 2.0,
            samples_ingested: 96.0,
            samples_dropped: 0.0,
            batches_ingested: 2.0,
        };
        assert!(check_counters(&reported, &sent).is_ok());
        let planted = FleetCounters {
            samples_ingested: 95.0,
            ..sent
        };
        assert!(check_counters(&reported, &planted).is_err());
    }

    #[test]
    fn json_field_reads_flat_numbers() {
        let body = "{\"applied\":48,\"dropped\":0,\"racks_touched\":4}";
        assert_eq!(json_field(body, "applied"), Some(48.0));
        assert_eq!(json_field(body, "racks_touched"), Some(4.0));
        assert_eq!(json_field(body, "missing"), None);
    }
}
