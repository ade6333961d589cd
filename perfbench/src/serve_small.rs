//! `serve-small`: a closed loop of small requests against a spawned
//! `rap serve --workers 2 --adapt`.
//!
//! Two connections, each sending its next request only after the reply
//! to the previous one arrived, the way `rap query` and the cluster
//! coordinator call a server. The request mix is in [`crate::requests`].

use crate::check::{self, field, Tally};
use crate::procs::ServerProc;
use crate::requests::{Kind, Mix, ADAPT_INITIAL, ADAPT_WIDTH};
use crate::summary::{median, quantile, Event};
use crate::Ctx;
use rap_access::CancelToken;
use rap_adapt::{AdaptConfig, AdaptiveController};
use rap_cluster::{Cluster, ClusterConfig, WorkerPool};
use rap_serve::handler::{execute, Outcome};
use rap_serve::{Client, ErrorKind, Request, Response};
use serde::Value;
use std::time::{Duration, Instant};

/// Server spawns timed per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Closed-loop connections (the reference host has two cores).
const CONNECTIONS: u64 = 2;
/// Every this many requests, the answer is checked against an
/// in-process `handler::execute` of the same command.
const CHECK_EVERY: u64 = 8;
/// Most requests the traced run replays in-process.
const REPLAY_MAX: usize = 4000;

/// The adaptive controller's flags, shared by the spawned server and the
/// in-process replay so that both run the same epoch machine.
const ADAPT_WINDOW: usize = 64;
const ADAPT_EVAL_EVERY: u64 = 8;
const ADAPT_MIN_SAMPLES: u64 = 8;
const ADAPT_MIGRATE_STEPS: u64 = 4;

fn adapt_config() -> AdaptConfig {
    AdaptConfig {
        width: ADAPT_WIDTH,
        initial: ADAPT_INITIAL.to_string(),
        window: ADAPT_WINDOW,
        eval_every: ADAPT_EVAL_EVERY,
        min_samples: ADAPT_MIN_SAMPLES,
        migrate_steps: ADAPT_MIGRATE_STEPS,
        ..AdaptConfig::default()
    }
}

/// What one `serve-small` run measured.
#[derive(Debug, Default)]
pub struct ServeSmall {
    /// Median spawn-to-first-healthy-answer time, seconds.
    pub setup_s: f64,
    /// Every request: completion time, roundtrip latency, and the
    /// Monte-Carlo trials and blocks it ran (0 when it failed).
    pub events: Vec<Event>,
    /// Wall time of the closed loop, seconds.
    pub elapsed_s: f64,
    /// Requests shed by admission control.
    pub shed: u64,
    /// Requests answered with any other error, or lost to I/O.
    pub errors: u64,
    /// Requests answered `degraded:true`.
    pub degraded: u64,
    /// The `stats` endpoint's conservation verdict.
    pub conserves: bool,
    /// `adapt_status` after the loop: committed swaps, rollbacks and
    /// ledger errors.
    pub swaps: u64,
    /// See `swaps`.
    pub rollbacks: u64,
    /// See `swaps`.
    pub ledger_errors: u64,
    /// Peak RSS of the server that served the closed loop, KiB.
    pub server_rss_kib: u64,
    /// In-process replay of the traced run (`None` when untraced).
    pub replay: Option<Replay>,
}

/// The traced run's in-process replay of its own request stream.
#[derive(Debug, Default)]
pub struct Replay {
    /// Median `Request::parse`, ns.
    pub parse_ns: f64,
    /// Median `handler::execute` by command, µs, in [`Kind::ALL`] order.
    pub execute_us: Vec<f64>,
    /// Median `handler::execute` over every replayed request, µs.
    pub execute_all_us: f64,
    /// Median `Response::to_line`, ns.
    pub encode_ns: f64,
    /// Median `Response::parse`, ns.
    pub client_parse_ns: f64,
    /// Median per-request roundtrip minus its in-process parse, execute,
    /// encode and client parse: the socket, queue and thread hand-offs.
    pub wire_us: f64,
}

#[derive(Default)]
struct Conn {
    events: Vec<Event>,
    sent: u64,
    shed: u64,
    errors: u64,
    degraded: u64,
    checks: Vec<(String, Value)>,
    replay: Vec<(String, Kind, f64)>,
    tally: Tally,
}

fn spawn_args(ledger: &str) -> Vec<String> {
    let mut args: Vec<String> = ["--workers", "2", "--adapt", "--adapt-ledger", ledger]
        .iter()
        .map(ToString::to_string)
        .collect();
    for (flag, value) in [
        ("--adapt-width", ADAPT_WIDTH.to_string()),
        ("--adapt-initial", ADAPT_INITIAL.to_string()),
        ("--adapt-window", ADAPT_WINDOW.to_string()),
        ("--adapt-eval-every", ADAPT_EVAL_EVERY.to_string()),
        ("--adapt-min-samples", ADAPT_MIN_SAMPLES.to_string()),
        ("--adapt-migrate-steps", ADAPT_MIGRATE_STEPS.to_string()),
    ] {
        args.push(flag.to_string());
        args.push(value);
    }
    args
}

/// Spawn a server with a fresh epoch ledger and wait for its first
/// healthy answer. Returns the server, a connected client, and the time
/// it took.
fn start_server(ctx: &Ctx, i: usize) -> Result<(ServerProc, Client, f64), String> {
    let ledger = ctx.work_dir.join(format!("epochs-{i}.jsonl"));
    let _ = std::fs::remove_file(&ledger);
    let args = spawn_args(&ledger.to_string_lossy());
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let start = Instant::now();
    let (started, _) = ctx.tracer.timed("serve.setup", "", 0, 0, |_| {
        let server = ServerProc::spawn(&ctx.rap_bin, &args)
            .map_err(|e| format!("spawning {}: {e}", ctx.rap_bin.display()))?;
        let mut client = Client::connect_with_timeout(server.addr, Duration::from_secs(10))
            .map_err(|e| format!("connecting to {}: {e}", server.addr))?;
        let health = client
            .roundtrip(r#"{"cmd":"health"}"#)
            .map_err(|e| format!("health: {e}"))?;
        let status = health.data.as_ref().and_then(|d| field(d, &["status"]));
        if !matches!(status, Some(Value::String(s)) if s == "ok") {
            return Err(format!("server not healthy: {health:?}"));
        }
        Ok((server, client))
    });
    let elapsed = start.elapsed().as_secs_f64();
    let (server, client) = started?;
    Ok((server, client, elapsed))
}

/// Run the workload for `seconds` of closed loop.
///
/// # Errors
/// The server could not be started.
pub fn run(ctx: &Ctx, seconds: f64, tally: &mut Tally) -> Result<ServeSmall, String> {
    let mut out = ServeSmall::default();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut server = None;
    for i in 0..SETUPS {
        let (s, client, took) = start_server(ctx, i)?;
        setups.push(took);
        if i + 1 < SETUPS {
            drop(client);
            s.stop(Duration::from_secs(5));
        } else {
            server = Some((s, client));
        }
    }
    out.setup_s = median(&setups);
    let (server, mut control) = server.ok_or("no server started")?;
    // One health request so far on the kept server.
    let mut sent_control = 1u64;

    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let conns: Vec<Option<Conn>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| scope.spawn(move || closed_loop(ctx, server.addr, c, start, deadline)))
            .collect();
        handles.into_iter().map(|h| h.join().ok()).collect()
    });
    out.elapsed_s = start.elapsed().as_secs_f64();

    let mut sent_loop = 0;
    let mut replay_stream = Vec::new();
    for conn in conns {
        let Some(conn) = conn else {
            tally.check(false, || "serve-small: a connection thread panicked".into());
            continue;
        };
        out.events.extend(conn.events);
        out.shed += conn.shed;
        out.errors += conn.errors;
        out.degraded += conn.degraded;
        sent_loop += conn.sent;
        tally.absorb(conn.tally);
        for (line, data) in &conn.checks {
            tally.check(check::served_answer_matches(line, data), || {
                format!("serve-small: served answer differs from handler::execute for {line}")
            });
        }
        replay_stream.extend(conn.replay);
    }

    // Accounting: every line sent was received and answered exactly once.
    sent_control += 1;
    let stats = control
        .roundtrip(r#"{"cmd":"stats"}"#)
        .ok()
        .and_then(|r| r.data)
        .unwrap_or(Value::Null);
    out.conserves = matches!(
        field(&stats, &["conserves_responses"]),
        Some(Value::Bool(true))
    );
    let received = check::as_f64(field(&stats, &["metrics", "received"])).unwrap_or(-1.0);
    let sent = sent_loop + sent_control;
    tally.check(out.conserves, || {
        "serve-small: stats does not conserve responses".into()
    });
    tally.check(received == sent as f64, || {
        format!("serve-small: server received {received} requests, client sent {sent}")
    });
    let status = control
        .roundtrip(r#"{"cmd":"adapt_status"}"#)
        .ok()
        .and_then(|r| r.data)
        .unwrap_or(Value::Null);
    let count = |key: &str| check::as_f64(field(&status, &[key])).unwrap_or(0.0) as u64;
    out.swaps = count("swaps");
    out.rollbacks = count("rollbacks");
    out.ledger_errors = count("ledger_errors");
    tally.check(out.swaps >= 1, || {
        "serve-small: the adaptive controller committed no epoch swap".into()
    });
    tally.check(out.ledger_errors == 0, || {
        format!("serve-small: {} epoch-ledger errors", out.ledger_errors)
    });
    drop(control);

    let pool = WorkerPool::connect(&[server.addr]);
    let cluster = Cluster::new(pool, ClusterConfig::default());
    check::cross_layer(ctx.seed, server.addr, &cluster, tally);
    drop(cluster);

    if ctx.tracer.enabled() {
        out.replay = Some(replay(ctx, &replay_stream));
    }
    out.server_rss_kib += server.peak_rss_kib();
    tally.check(server.stop(Duration::from_secs(5)), || {
        "serve-small: server did not drain cleanly".into()
    });
    Ok(out)
}

fn closed_loop(
    ctx: &Ctx,
    addr: std::net::SocketAddr,
    conn_index: u64,
    start: Instant,
    deadline: Instant,
) -> Conn {
    let mid = start + (deadline - start) / 2;
    let mut conn = Conn::default();
    let mut mix = Mix::new(ctx.seed, conn_index);
    let mut client = None;
    let mut n = 0u64;
    while Instant::now() < deadline {
        let req = mix.next_req(Instant::now() >= mid);
        let id = n + 1;
        if client.is_none() {
            client = Client::connect_with_timeout(addr, Duration::from_secs(10)).ok();
        }
        let Some(c) = client.as_mut() else {
            conn.errors += 1;
            conn.tally
                .check(false, || format!("serve-small: cannot connect to {addr}"));
            break;
        };
        conn.sent += 1;
        let (answer, took) = ctx
            .tracer
            .timed("serve.roundtrip", req.kind.name(), 0, id, |_| {
                c.roundtrip(&req.line)
            });
        let us = took.as_secs_f64() * 1e6;
        let mut event = Event {
            at_s: start.elapsed().as_secs_f64(),
            latency_us: us,
            ..Event::default()
        };
        let ok = match answer {
            Ok(resp) if resp.ok && !resp.degraded => {
                event.trials = req.trials;
                event.blocks = req.blocks;
                if n.is_multiple_of(CHECK_EVERY) {
                    if let Some(data) = resp.data {
                        conn.checks.push((req.line.clone(), data));
                    }
                }
                true
            }
            Ok(resp) if resp.ok => {
                conn.degraded += 1;
                false
            }
            Ok(resp) => {
                if resp.error_kind() == Some(ErrorKind::Shed.name()) {
                    conn.shed += 1;
                } else {
                    conn.errors += 1;
                }
                false
            }
            Err(_) => {
                conn.errors += 1;
                client = None;
                false
            }
        };
        conn.events.push(event);
        conn.tally
            .check(ok, || format!("serve-small: request failed: {}", req.line));
        if ctx.tracer.enabled() {
            conn.replay.push((req.line, req.kind, us));
        }
        n += 1;
    }
    conn
}

/// Replay the traced stream in-process through parse → execute → encode
/// (and the client's response parse), one request at a time.
fn replay(ctx: &Ctx, stream: &[(String, Kind, f64)]) -> Replay {
    let tracer = &ctx.tracer;
    let controller = AdaptiveController::new(adapt_config()).ok();
    let token = CancelToken::never();
    let mut parse = Vec::new();
    let mut encode = Vec::new();
    let mut client_parse = Vec::new();
    let mut exec_all = Vec::new();
    let mut exec_by_kind: Vec<Vec<f64>> = vec![Vec::new(); Kind::ALL.len()];
    let mut wire = Vec::new();
    let step = stream.len().div_ceil(REPLAY_MAX).max(1);
    for (i, (line, kind, rtt_us)) in stream.iter().enumerate().step_by(step) {
        let req_id = i as u64 + 1;
        tracer.timed("bench.replay", kind.name(), 0, req_id, |root| {
            let (request, p) =
                tracer.timed("serve.parse", "", root, req_id, |_| Request::parse(line));
            let Ok(request) = request else { return };
            let (outcome, e) = tracer.timed("serve.execute", kind.name(), root, req_id, |_| {
                execute(&request.cmd, &token, controller.as_ref())
            });
            let response = match outcome {
                Outcome::Ok(v) => Response::ok(request.id, "closed", v),
                Outcome::Degraded(v, _) => Response::degraded(request.id, "closed", v),
                _ => Response::error(request.id, "closed", ErrorKind::HandlerFailed, "replay"),
            };
            let (encoded, n) =
                tracer.timed("serve.encode", "", root, req_id, |_| response.to_line());
            let (_, cp) = tracer.timed("serve.client_parse", "", root, req_id, |_| {
                Response::parse(&encoded)
            });
            let [p, e, n, cp] = [p, e, n, cp].map(|d| d.as_secs_f64() * 1e6);
            parse.push(p * 1e3);
            encode.push(n * 1e3);
            client_parse.push(cp * 1e3);
            exec_all.push(e);
            if let Some(k) = Kind::ALL.iter().position(|k| k == kind) {
                exec_by_kind[k].push(e);
            }
            wire.push(rtt_us - (p + e + n + cp));
        });
    }
    Replay {
        parse_ns: median(&parse),
        execute_us: exec_by_kind.iter().map(|v| median(v)).collect(),
        execute_all_us: median(&exec_all),
        encode_ns: median(&encode),
        client_parse_ns: median(&client_parse),
        wire_us: median(&wire),
    }
}

impl ServeSmall {
    /// The `q`-quantile of every roundtrip of the run, µs.
    #[must_use]
    pub fn p(&self, q: f64) -> f64 {
        let latencies: Vec<f64> = self.events.iter().map(|e| e.latency_us).collect();
        quantile(&latencies, q)
    }
}
