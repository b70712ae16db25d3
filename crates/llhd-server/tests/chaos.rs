//! The chaos harness: a seeded [`FaultPlan`] injects panics, slow/short/
//! failing reads, and artificial queue pressure into a live server while
//! concurrent clients hammer it with the full request mix. The server
//! must answer every request that survives its connection with a
//! well-formed response (clean retryable errors included), never die,
//! and still serve normally once the storm has passed.
//!
//! Only compiled with the `fault-injection` feature:
//! `cargo test -p llhd-server --features fault-injection --test chaos`.
//! The seed comes from `LLHD_CHAOS_SEED` (default 3405691582) so CI runs
//! are replayable; vary the seed locally to explore other schedules.
#![cfg(feature = "fault-injection")]

use llhd_server::fault::{FaultPlan, Site};
use llhd_server::json::Json;
use llhd_server::{Client, Server, ServerConfig};
use std::sync::Arc;
use std::time::Duration;

const BLINK: &str = r#"
proc @blink () -> (i1$ %led) {
entry:
    %on = const i1 1
    %off = const i1 0
    %delay = const time 5ns
    drv i1$ %led, %on after %delay
    wait %next for %delay
next:
    drv i1$ %led, %off after %delay
    wait %entry for %delay
}
"#;

/// One client's tally of how its requests were answered.
#[derive(Default, Debug)]
struct Tally {
    ok: usize,
    /// Clean errors, by kind.
    internal: usize,
    overloaded: usize,
    other_errors: usize,
    /// Connections lost to injected I/O faults (client reconnected).
    reconnects: usize,
}

/// Send `request`, tolerating injected connection deaths by
/// reconnecting (a fresh attempt of the same request). Panics on a
/// malformed response — that is exactly what the test polices.
fn chaotic_request(
    client: &mut Option<Client>,
    addr: std::net::SocketAddr,
    request: &Json,
    tally: &mut Tally,
) -> Option<Json> {
    for _attempt in 0..30 {
        let live = match client.as_mut() {
            Some(live) => live,
            None => match Client::connect(addr) {
                Ok(fresh) => client.insert(fresh),
                Err(_) => {
                    std::thread::sleep(Duration::from_millis(5));
                    continue;
                }
            },
        };
        match live.request(request) {
            Ok(response) => {
                // Every delivered response must be a well-formed v1
                // envelope; errors must carry kind, message, retryable.
                assert_eq!(response.get("v"), Some(&Json::Int(1)), "{}", response);
                match response.get("ok") {
                    Some(&Json::Bool(true)) => tally.ok += 1,
                    Some(&Json::Bool(false)) => {
                        let error = response.get("error").unwrap_or_else(|| {
                            panic!("error response without error object: {}", response)
                        });
                        let kind = error
                            .get("kind")
                            .and_then(Json::as_str)
                            .unwrap_or_else(|| panic!("error without kind: {}", response));
                        assert!(
                            error.get("message").and_then(Json::as_str).is_some(),
                            "{}",
                            response
                        );
                        let retryable = match error.get("retryable") {
                            Some(&Json::Bool(b)) => b,
                            other => panic!("retryable is {:?} in {}", other, response),
                        };
                        match kind {
                            "internal_error" => tally.internal += 1,
                            "overloaded" => {
                                assert!(retryable, "{}", response);
                                assert!(
                                    error.get("retry_after_ms").and_then(Json::as_int).is_some(),
                                    "overloaded without retry_after_ms: {}",
                                    response
                                );
                                tally.overloaded += 1;
                            }
                            _ => tally.other_errors += 1,
                        }
                    }
                    other => panic!("response ok={:?}: {}", other, response),
                }
                return Some(response);
            }
            Err(_) => {
                // The injected read fault killed this connection (or its
                // response); reconnect and retry the request.
                *client = None;
                tally.reconnects += 1;
            }
        }
    }
    None
}

/// Pull a counter out of a `stats` response's `load` object.
fn load_counter(stats: &Json, name: &str) -> i128 {
    stats
        .get("result")
        .and_then(|r| r.get("load"))
        .and_then(|l| l.get(name))
        .and_then(Json::as_int)
        .unwrap_or_else(|| panic!("stats lacks load.{}: {}", name, stats))
}

#[test]
fn a_seeded_fault_storm_cannot_kill_the_server() {
    let seed = std::env::var("LLHD_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xCAFE_BABEu64);
    let plan = Arc::new(
        FaultPlan::new(seed)
            .with_rate(Site::SimPanic, 48)
            .with_rate(Site::IoReadSlow, 12)
            .with_rate(Site::IoReadShort, 24)
            .with_rate(Site::IoReadError, 5)
            .with_rate(Site::QueuePressure, 24),
    );
    let running = Server::spawn_tcp(
        ServerConfig {
            queue_cap: Some(16),
            fault_plan: Some(Arc::clone(&plan)),
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind an ephemeral port");
    let addr = running.addr();

    // Six concurrent clients, each issuing the full request mix. Delay
    // variants per client keep several designs in flight at once.
    let workers: Vec<_> = (0..6)
        .map(|i| {
            std::thread::spawn(move || {
                let source = BLINK.replace("5ns", &format!("{}ns", 3 + i));
                let mut client: Option<Client> = None;
                let mut tally = Tally::default();
                for round in 0..30 {
                    let request = match round % 5 {
                        0 => Json::obj([("type", Json::str("ping"))]),
                        1 => Json::obj([
                            ("type", Json::str("sim")),
                            ("source", Json::str(source.clone())),
                            ("top", Json::str("blink")),
                            ("engine", Json::str("interpret")),
                            ("until_ns", Json::Int(40 + round)),
                        ]),
                        2 => Json::obj([
                            ("type", Json::str("batch")),
                            (
                                "jobs",
                                Json::Arr(
                                    (0..3)
                                        .map(|_| {
                                            Json::obj([
                                                ("source", Json::str(source.clone())),
                                                ("top", Json::str("blink")),
                                                ("engine", Json::str("interpret")),
                                                ("until_ns", Json::Int(20)),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                        ]),
                        3 => Json::obj([("type", Json::str("stats"))]),
                        // A deliberately bad request: clean errors must
                        // keep flowing during the storm too.
                        _ => Json::obj([
                            ("type", Json::str("sim")),
                            ("design", Json::str("ffffffffffffffffffffffffffffffff")),
                            ("top", Json::str("blink")),
                        ]),
                    };
                    chaotic_request(&mut client, addr, &request, &mut tally);
                }
                tally
            })
        })
        .collect();
    let mut total = Tally::default();
    for worker in workers {
        let tally = worker.join().expect("a client thread died");
        total.ok += tally.ok;
        total.internal += tally.internal;
        total.overloaded += tally.overloaded;
        total.other_errors += tally.other_errors;
        total.reconnects += tally.reconnects;
    }
    // Every storm request has been answered or had its connection die
    // before it was read, so no job is still counted in flight: a job's
    // admission is released on every path, injected panics included.
    let mut client: Option<Client> = None;
    let stats = chaotic_request(
        &mut client,
        addr,
        &Json::obj([("type", Json::str("stats"))]),
        &mut Tally::default(),
    )
    .expect("post-storm stats went unanswered");
    assert_eq!(load_counter(&stats, "inflight"), 0, "{}", stats);

    // The storm actually stormed: faults fired at three or more distinct
    // sites, including mid-simulation panics the server had to absorb.
    let sites_fired = [
        Site::SimPanic,
        Site::IoReadSlow,
        Site::IoReadShort,
        Site::IoReadError,
        Site::QueuePressure,
    ]
    .iter()
    .filter(|&&site| plan.injected(site) > 0)
    .count();
    assert!(
        sites_fired >= 3,
        "only {} fault sites fired (seed {}): {:?}",
        sites_fired,
        seed,
        plan
    );
    assert!(
        plan.injected(Site::SimPanic) > 0,
        "the panic site never fired (seed {})",
        seed
    );
    // Injected panics must surface to clients as `internal_error`
    // responses. The storm tally usually shows them already, but a
    // panic's response can be eaten by an injected read fault on the
    // same connection (the client reconnects and the retried request
    // need not draw another panic) — so when the storm came up empty,
    // probe sequentially until one surfaces: the plan stays armed and
    // the panic site fires every few simulations. The probe runs long
    // enough (≥ 32 scheduler cycles) that every fired `sim.panic` draw
    // reaches its chosen cycle (`word % 32`) instead of outliving the
    // simulation, so each probe panics with the site's full rate.
    if total.internal == 0 {
        let probe_request = Json::obj([
            ("type", Json::str("sim")),
            ("source", Json::str(BLINK)),
            ("top", Json::str("blink")),
            ("engine", Json::str("interpret")),
            ("until_ns", Json::Int(400)),
        ]);
        let mut probe_client: Option<Client> = None;
        let mut probe = Tally::default();
        for _ in 0..100 {
            chaotic_request(&mut probe_client, addr, &probe_request, &mut probe);
            if probe.internal > 0 {
                break;
            }
        }
        total.internal += probe.internal;
    }
    assert!(
        total.internal > 0,
        "injected panics must surface as internal_error responses: {:?}",
        total
    );
    assert!(total.ok > 0, "some requests must succeed mid-storm: {:?}", total);

    // The server outlived the storm: a *fault-free* check is impossible
    // (the plan stays armed), so retry through residual faults — but a
    // healthy server answers a ping and a fresh simulation within a few
    // attempts, and its panic counter shows it absorbed the hits.
    let mut client: Option<Client> = None;
    let mut after = Tally::default();
    let pong = chaotic_request(
        &mut client,
        addr,
        &Json::obj([("type", Json::str("ping"))]),
        &mut after,
    )
    .expect("post-chaos ping went unanswered");
    assert_eq!(pong.get("ok"), Some(&Json::Bool(true)), "{}", pong);
    // The residual storm may still fail individual attempts with an
    // injected panic (the plan stays armed, ~19% per job), so allow a
    // handful of draws — a healthy server answers `ok` within them.
    let mut sim_ok = false;
    for _ in 0..10 {
        let sim = chaotic_request(
            &mut client,
            addr,
            &Json::obj([
                ("type", Json::str("sim")),
                ("source", Json::str(BLINK)),
                ("top", Json::str("blink")),
                ("engine", Json::str("interpret")),
                ("until_ns", Json::Int(100)),
            ]),
            &mut after,
        )
        .expect("post-chaos sim went unanswered");
        if sim.get("ok") == Some(&Json::Bool(true)) {
            sim_ok = true;
            break;
        }
    }
    assert!(sim_ok, "post-chaos sim never succeeded: {:?}", after);
    let stats = chaotic_request(
        &mut client,
        addr,
        &Json::obj([("type", Json::str("stats"))]),
        &mut after,
    )
    .expect("post-chaos stats went unanswered");
    let panics_caught = load_counter(&stats, "panics_caught");
    assert!(
        panics_caught > 0,
        "the server should have counted absorbed panics: {}",
        stats
    );

    // And it still shuts down cleanly — the serving thread never panicked.
    let mut shut = Tally::default();
    chaotic_request(
        &mut client,
        addr,
        &Json::obj([("type", Json::str("shutdown"))]),
        &mut shut,
    );
    running.state().begin_shutdown();
    running.join().expect("server thread must not have panicked");
}

/// A job whose simulation panics still gives back its admission: on a
/// server that admits one job at a time, every job panics (`sim.panic`
/// at rate 256), and each next job is still admitted — answered with
/// `internal_error`, never shed as `overloaded`.
#[test]
fn a_panicked_job_releases_its_admission() {
    let plan = Arc::new(FaultPlan::new(7).with_rate(Site::SimPanic, 256));
    let running = Server::spawn_tcp(
        ServerConfig {
            queue_cap: Some(1),
            fault_plan: Some(Arc::clone(&plan)),
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind an ephemeral port");
    let mut client = Client::connect(running.addr()).unwrap();
    // Long enough (≥ 32 scheduler cycles) to reach any cycle the plan
    // picks for the panic.
    let sim = Json::obj([
        ("type", Json::str("sim")),
        ("source", Json::str(BLINK)),
        ("top", Json::str("blink")),
        ("engine", Json::str("interpret")),
        ("until_ns", Json::Int(400)),
    ]);
    for _ in 0..3 {
        let response = client.request(&sim).unwrap();
        let kind = response.get("error").and_then(|e| e.get("kind"));
        assert_eq!(kind.and_then(Json::as_str), Some("internal_error"), "{}", response);
    }
    let stats = client.request(&Json::obj([("type", Json::str("stats"))])).unwrap();
    assert_eq!(load_counter(&stats, "inflight"), 0, "{}", stats);
    assert_eq!(load_counter(&stats, "shed"), 0, "{}", stats);
    assert_eq!(load_counter(&stats, "panics_caught"), 3, "{}", stats);
    assert_eq!(plan.injected(Site::SimPanic), 3);
    client.request(&Json::obj([("type", Json::str("shutdown"))])).unwrap();
    running.join().unwrap();
}
