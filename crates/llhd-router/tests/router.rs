//! In-process integration tests of the routing tier: placement and the
//! design memo, batch split/merge ordering, sticky sessions and
//! checkpoint migration, retry-on-overload, drain, and router-level
//! admission control — against real `llhd-server` instances on real TCP
//! sockets.

use llhd_router::{Health, Ring, Router, RouterConfig, RunningRouter, WorkerSpec};
use llhd_server::json::Json;
use llhd_server::protocol::{error_response, ok_response, ErrorKind, ProtoError};
use llhd_server::{Client, Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::mpsc;
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

/// Spawn a worker with a fixed identity on an ephemeral port.
fn spawn_worker(server_id: &str) -> llhd_server::RunningServer {
    let config = ServerConfig {
        server_id: Some(server_id.to_string()),
        ..ServerConfig::default()
    };
    Server::spawn_tcp(config, "127.0.0.1:0").expect("bind a worker")
}

/// Spawn a router over `workers` with a fast health-ping cadence.
fn spawn_router(workers: Vec<WorkerSpec>, tweak: impl FnOnce(&mut RouterConfig)) -> RunningRouter {
    let mut config = RouterConfig {
        workers,
        ping_interval: Duration::from_millis(100),
        ..RouterConfig::default()
    };
    tweak(&mut config);
    Router::spawn_tcp(config, "127.0.0.1:0").expect("bind the router")
}

fn spec(id: &str, addr: SocketAddr) -> WorkerSpec {
    WorkerSpec {
        id: id.to_string(),
        addr,
    }
}

fn sim_request(fields: Vec<(&'static str, Json)>) -> Json {
    let mut all = vec![("type", Json::str("sim"))];
    all.extend(fields);
    Json::obj(all)
}

fn source_sim(source: &str) -> Json {
    sim_request(vec![
        ("source", Json::str(source)),
        ("top", Json::str("blink")),
        ("engine", Json::str("interpret")),
        ("until_ns", Json::Int(50)),
    ])
}

fn shutdown(client: &mut Client) {
    let ack = client
        .request(&Json::obj([("type", Json::str("shutdown"))]))
        .unwrap();
    assert_eq!(ack.get("ok"), Some(&Json::Bool(true)), "{}", ack);
}

fn error_kind(response: &Json) -> &str {
    response
        .get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("response has no error.kind: {}", response))
}

fn router_counter(stats: &Json, name: &str) -> i128 {
    stats
        .get("result")
        .and_then(|r| r.get("router"))
        .and_then(|r| r.get(name))
        .and_then(Json::as_int)
        .unwrap_or_else(|| panic!("stats response lacks router.{}: {}", name, stats))
}

#[test]
fn ping_reports_the_fleet_shape() {
    let a = spawn_worker("ping-a");
    let b = spawn_worker("ping-b");
    let router = spawn_router(
        vec![spec("wa", a.addr()), spec("wb", b.addr())],
        |_| {},
    );
    let mut client = Client::connect(router.addr()).unwrap();
    let pong = client
        .request(&Json::obj([("type", Json::str("ping")), ("id", Json::Int(7))]))
        .unwrap();
    assert_eq!(pong.get("ok"), Some(&Json::Bool(true)), "{}", pong);
    assert_eq!(pong.get("id"), Some(&Json::Int(7)));
    let result = pong.get("result").unwrap();
    assert_eq!(result.get("pong"), Some(&Json::Bool(true)));
    assert_eq!(result.get("role").and_then(Json::as_str), Some("router"));
    assert_eq!(result.get("workers").and_then(Json::as_int), Some(2));
    assert!(result.get("server_id").and_then(Json::as_str).is_some());
    assert!(result.get("uptime_ms").and_then(Json::as_int).is_some());
    shutdown(&mut client);
    router.join().unwrap();
    let mut wa = Client::connect(a.addr()).unwrap();
    shutdown(&mut wa);
    let mut wb = Client::connect(b.addr()).unwrap();
    shutdown(&mut wb);
    a.join().unwrap();
    b.join().unwrap();
}

#[test]
fn the_memo_keeps_keyed_requests_on_the_warm_worker() {
    let workers = [spawn_worker("memo-a"), spawn_worker("memo-b"), spawn_worker("memo-c")];
    let router = spawn_router(
        vec![
            spec("w0", workers[0].addr()),
            spec("w1", workers[1].addr()),
            spec("w2", workers[2].addr()),
        ],
        |_| {},
    );
    let mut client = Client::connect(router.addr()).unwrap();

    // Submit by source: placed by source hash, response names the real
    // design fingerprint.
    let first = client.request(&source_sim(BLINK)).unwrap();
    assert_eq!(first.get("ok"), Some(&Json::Bool(true)), "{}", first);
    let key = first
        .get("result")
        .and_then(|r| r.get("design"))
        .and_then(Json::as_str)
        .unwrap()
        .to_string();

    // Re-request by fingerprint: only the worker that elaborated it has
    // the design resident, so success proves the memo bridged the two
    // placements.
    let second = client
        .request(&sim_request(vec![
            ("design", Json::str(key.clone())),
            ("top", Json::str("blink")),
            ("engine", Json::str("interpret")),
            ("until_ns", Json::Int(50)),
        ]))
        .unwrap();
    assert_eq!(second.get("ok"), Some(&Json::Bool(true)), "{}", second);

    // A fingerprint nobody has resident is a clean *non-retryable*
    // unknown_design pass-through — the router must not burn a retry on
    // a deterministic failure.
    let missing = client
        .request(&sim_request(vec![
            ("design", Json::str("00000000000000000000000000000001")),
            ("top", Json::str("blink")),
            ("until_ns", Json::Int(50)),
        ]))
        .unwrap();
    assert_eq!(missing.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(error_kind(&missing), "unknown_design");
    assert_eq!(
        missing.get("error").and_then(|e| e.get("retryable")),
        Some(&Json::Bool(false))
    );

    // The rollup attributes per-worker stats by server_id and counts the
    // routed traffic; nothing above was retried or shed.
    let stats = client.request(&Json::obj([("type", Json::str("stats"))])).unwrap();
    assert_eq!(stats.get("ok"), Some(&Json::Bool(true)), "{}", stats);
    assert!(router_counter(&stats, "routed") >= 3);
    assert_eq!(router_counter(&stats, "retried"), 0);
    assert_eq!(router_counter(&stats, "shed"), 0);
    assert_eq!(router_counter(&stats, "workers_up"), 3);
    let rollup = stats
        .get("result")
        .and_then(|r| r.get("workers"))
        .and_then(Json::as_arr)
        .unwrap();
    assert_eq!(rollup.len(), 3);
    let mut ids: Vec<&str> = rollup
        .iter()
        .map(|w| w.get("server_id").and_then(Json::as_str).expect("server_id"))
        .collect();
    ids.sort_unstable();
    assert_eq!(ids, vec!["memo-a", "memo-b", "memo-c"]);
    for worker in rollup {
        assert_eq!(worker.get("state").and_then(Json::as_str), Some("up"));
        assert!(
            worker.get("stats").and_then(|s| s.get("cache")).is_some(),
            "per-worker stats payload missing: {}",
            worker
        );
    }

    shutdown(&mut client);
    router.join().unwrap();
    for worker in workers {
        let mut direct = Client::connect(worker.addr()).unwrap();
        shutdown(&mut direct);
        worker.join().unwrap();
    }
}

#[test]
fn batches_split_across_workers_and_merge_in_request_order() {
    let a = spawn_worker("batch-a");
    let b = spawn_worker("batch-b");
    let router = spawn_router(
        vec![spec("w0", a.addr()), spec("w1", b.addr())],
        |_| {},
    );
    let mut client = Client::connect(router.addr()).unwrap();

    // Salt the source so the jobs hash to different placements (the ring
    // is public, so pick salts that land on *both* workers).
    let ring = Ring::new(&["w0".to_string(), "w1".to_string()]);
    let placed_on = |worker: usize| {
        (0..64)
            .map(|n| format!("{}{}", BLINK, "\n".repeat(n)))
            .find(|text| ring.candidates(llhd_router::source_key(text, "blink"))[0] == worker)
            .expect("some salt lands on the worker")
    };
    let on_first = placed_on(0);
    let on_second = placed_on(1);

    let job = |source: &str| {
        Json::obj([
            ("source", Json::str(source)),
            ("top", Json::str("blink")),
            ("engine", Json::str("interpret")),
            ("until_ns", Json::Int(50)),
        ])
    };
    let bad = Json::obj([
        ("design", Json::str("not-hex")),
        ("top", Json::str("blink")),
        ("until_ns", Json::Int(50)),
    ]);
    let response = client
        .request(&Json::obj([
            ("type", Json::str("batch")),
            (
                "jobs",
                Json::Arr(vec![job(&on_first), bad, job(&on_second), job(&on_first)]),
            ),
            ("id", Json::Int(9)),
        ]))
        .unwrap();
    assert_eq!(response.get("ok"), Some(&Json::Bool(true)), "{}", response);
    assert_eq!(response.get("id"), Some(&Json::Int(9)));
    let results = response
        .get("result")
        .and_then(|r| r.get("results"))
        .and_then(Json::as_arr)
        .unwrap();
    assert_eq!(results.len(), 4, "{}", response);
    for (index, entry) in results.iter().enumerate() {
        if index == 1 {
            assert_eq!(entry.get("ok"), Some(&Json::Bool(false)), "{}", entry);
            assert_eq!(error_kind(entry), "protocol");
        } else {
            assert_eq!(entry.get("ok"), Some(&Json::Bool(true)), "{}", entry);
            assert!(entry.get("end_time_fs").is_some() || entry
                .get("result")
                .map(|r| r.get("end_time_fs").is_some())
                .unwrap_or(false),
                "sim entry carries no end time: {}", entry);
        }
    }

    // Both workers really served a share (their caches saw an elaborate).
    let stats = client.request(&Json::obj([("type", Json::str("stats"))])).unwrap();
    let rollup = stats
        .get("result")
        .and_then(|r| r.get("workers"))
        .and_then(Json::as_arr)
        .unwrap();
    for worker in rollup {
        let misses = worker
            .get("stats")
            .and_then(|s| s.get("cache"))
            .and_then(|c| c.get("elaborate_misses"))
            .and_then(Json::as_int)
            .unwrap_or(0);
        assert!(misses >= 1, "a worker served no batch share: {}", worker);
    }

    shutdown(&mut client);
    router.join().unwrap();
    for worker in [a, b] {
        let mut direct = Client::connect(worker.addr()).unwrap();
        shutdown(&mut direct);
        worker.join().unwrap();
    }
}

#[test]
fn sessions_stick_to_their_worker_and_checkpoints_migrate() {
    let a = spawn_worker("sess-a");
    let b = spawn_worker("sess-b");
    let router = spawn_router(
        vec![spec("wa", a.addr()), spec("wb", b.addr())],
        |_| {},
    );
    let mut client = Client::connect(router.addr()).unwrap();

    // Create a session through the router: the returned id is prefixed
    // with the owning worker's router-side id.
    let created = client
        .request(&Json::obj([
            ("type", Json::str("session.create")),
            ("source", Json::str(BLINK)),
            ("top", Json::str("blink")),
            ("engine", Json::str("interpret")),
        ]))
        .unwrap();
    assert_eq!(created.get("ok"), Some(&Json::Bool(true)), "{}", created);
    let session = created
        .get("result")
        .and_then(|r| r.get("session"))
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    let (owner, _) = session.split_once(':').expect("a worker-prefixed id");
    assert!(owner == "wa" || owner == "wb", "odd owner in {:?}", session);

    // Commands with the prefixed id route back to the owner.
    let stepped = client
        .request(&Json::obj([
            ("type", Json::str("session.step")),
            ("session", Json::str(session.clone())),
            ("steps", Json::Int(5)),
        ]))
        .unwrap();
    assert_eq!(stepped.get("ok"), Some(&Json::Bool(true)), "{}", stepped);

    // Checkpoint, then drain the owner: sticky traffic still flows, but
    // new placements go elsewhere.
    let checkpoint = client
        .request(&Json::obj([
            ("type", Json::str("session.checkpoint")),
            ("session", Json::str(session.clone())),
        ]))
        .unwrap();
    assert_eq!(checkpoint.get("ok"), Some(&Json::Bool(true)), "{}", checkpoint);
    let state = checkpoint
        .get("result")
        .and_then(|r| r.get("state"))
        .and_then(Json::as_str)
        .unwrap()
        .to_string();

    let drained = client
        .request(&Json::obj([
            ("type", Json::str("router.drain")),
            ("worker", Json::str(owner)),
        ]))
        .unwrap();
    assert_eq!(drained.get("ok"), Some(&Json::Bool(true)), "{}", drained);
    assert_eq!(
        drained.get("result").and_then(|r| r.get("state")).and_then(Json::as_str),
        Some("draining")
    );

    let still_stepping = client
        .request(&Json::obj([
            ("type", Json::str("session.step")),
            ("session", Json::str(session.clone())),
            ("steps", Json::Int(1)),
        ]))
        .unwrap();
    assert_eq!(
        still_stepping.get("ok"),
        Some(&Json::Bool(true)),
        "sticky traffic must survive a drain: {}",
        still_stepping
    );

    // Restore the checkpoint through the router: with the owner
    // draining, placement picks the *other* worker — a worker-to-worker
    // migration of the session. The restore ships the source so the
    // target can elaborate the design itself.
    let restored = client
        .request(&Json::obj([
            ("type", Json::str("session.restore")),
            ("source", Json::str(BLINK)),
            ("top", Json::str("blink")),
            ("engine", Json::str("interpret")),
            ("state", Json::str(state)),
        ]))
        .unwrap();
    assert_eq!(restored.get("ok"), Some(&Json::Bool(true)), "{}", restored);
    let migrated = restored
        .get("result")
        .and_then(|r| r.get("session"))
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    let (new_owner, _) = migrated.split_once(':').expect("a worker-prefixed id");
    assert_ne!(new_owner, owner, "the session did not migrate: {}", migrated);

    let resumed = client
        .request(&Json::obj([
            ("type", Json::str("session.step")),
            ("session", Json::str(migrated.clone())),
            ("steps", Json::Int(5)),
        ]))
        .unwrap();
    assert_eq!(resumed.get("ok"), Some(&Json::Bool(true)), "{}", resumed);

    // Undrain restores the original worker for new work.
    let undrained = client
        .request(&Json::obj([
            ("type", Json::str("router.undrain")),
            ("worker", Json::str(owner)),
        ]))
        .unwrap();
    assert_eq!(
        undrained.get("result").and_then(|r| r.get("state")).and_then(Json::as_str),
        Some("up")
    );

    // Malformed or unknown session ids fail cleanly without touching a
    // worker.
    for bogus in ["s1", "nope:s1"] {
        let response = client
            .request(&Json::obj([
                ("type", Json::str("session.step")),
                ("session", Json::str(bogus)),
                ("steps", Json::Int(1)),
            ]))
            .unwrap();
        assert_eq!(response.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(error_kind(&response), "unknown_session", "{}", response);
    }

    for session in [session, migrated] {
        let destroyed = client
            .request(&Json::obj([
                ("type", Json::str("session.destroy")),
                ("session", Json::str(session)),
            ]))
            .unwrap();
        assert_eq!(destroyed.get("ok"), Some(&Json::Bool(true)), "{}", destroyed);
    }

    shutdown(&mut client);
    router.join().unwrap();
    for worker in [a, b] {
        let mut direct = Client::connect(worker.addr()).unwrap();
        shutdown(&mut direct);
        worker.join().unwrap();
    }
}

/// A stub worker that answers pings normally but sheds every other
/// request with a retryable `overloaded` error — the deterministic way
/// to exercise the router's retry path.
fn spawn_overloaded_stub() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind the stub");
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { return };
            std::thread::spawn(move || {
                let mut writer = stream.try_clone().expect("clone");
                let reader = BufReader::new(stream);
                for line in reader.lines() {
                    let Ok(line) = line else { return };
                    let value = Json::parse(&line).unwrap_or(Json::Null);
                    let id = value.get("id").cloned();
                    let response = if value.get("type").and_then(Json::as_str) == Some("ping") {
                        ok_response(
                            id,
                            Json::obj([
                                ("pong", Json::Bool(true)),
                                ("server_id", Json::str("stub")),
                            ]),
                        )
                    } else {
                        error_response(
                            id,
                            &ProtoError::new(ErrorKind::Overloaded, "stub is always full")
                                .with_data("retry_after_ms", Json::uint(5)),
                        )
                    };
                    if writeln!(writer, "{}", response).is_err() {
                        return;
                    }
                }
            });
        }
    });
    addr
}

/// A stub worker that answers pings at once but answers a `sim` only
/// after sleeping for a second: a worker busy with long simulations.
/// The receiver gets one message per `sim` line as it arrives.
fn spawn_slow_stub() -> (SocketAddr, mpsc::Receiver<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind the stub");
    let addr = listener.local_addr().unwrap();
    let (arrived, arrivals) = mpsc::channel();
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { return };
            let arrived = arrived.clone();
            std::thread::spawn(move || {
                let mut writer = stream.try_clone().expect("clone");
                let reader = BufReader::new(stream);
                for line in reader.lines() {
                    let Ok(line) = line else { return };
                    let value = Json::parse(&line).unwrap_or(Json::Null);
                    let id = value.get("id").cloned();
                    let result = if value.get("type").and_then(Json::as_str) == Some("sim") {
                        let _ = arrived.send(());
                        std::thread::sleep(Duration::from_secs(1));
                        Json::obj([("end_time_fs", Json::Int(0))])
                    } else {
                        Json::obj([
                            ("pong", Json::Bool(true)),
                            ("server_id", Json::str("slow")),
                        ])
                    };
                    if writeln!(writer, "{}", ok_response(id, result)).is_err() {
                        return;
                    }
                }
            });
        }
    });
    (addr, arrivals)
}

/// A health ping must not wait behind the simulations a worker is
/// running: with four sims in flight, `check` still answers in time and
/// the worker stays up.
#[test]
fn a_health_check_does_not_queue_behind_running_sims() {
    let (stub, arrivals) = spawn_slow_stub();
    let router = spawn_router(vec![spec("slow", stub)], |_| {});
    let addr = router.addr();
    let sims: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client.request(&source_sim(BLINK)).unwrap()
            })
        })
        .collect();
    for _ in 0..4 {
        arrivals
            .recv_timeout(Duration::from_secs(10))
            .expect("every sim reaches the worker");
    }
    let worker = &router.state().workers()[0];
    assert!(
        worker.check(Duration::from_millis(300)),
        "a ping must not wait behind running sims"
    );
    assert_eq!(worker.health(), Health::Up);
    for sim in sims {
        let response = sim.join().unwrap();
        assert_eq!(response.get("ok"), Some(&Json::Bool(true)), "{}", response);
    }
    assert_eq!(worker.health(), Health::Up);
    let mut client = Client::connect(addr).unwrap();
    shutdown(&mut client);
    router.join().unwrap();
}

#[test]
fn overloaded_workers_are_retried_once_on_the_next_candidate() {
    let real = spawn_worker("retry-real");
    let stub = spawn_overloaded_stub();
    let router = spawn_router(
        vec![spec("real", real.addr()), spec("stub", stub)],
        |_| {},
    );
    let mut client = Client::connect(router.addr()).unwrap();

    // Salt the source until the *stub* is the ring's first candidate, so
    // the request must survive an overload to succeed.
    let ring = Ring::new(&["real".to_string(), "stub".to_string()]);
    let source = (0..64)
        .map(|n| format!("{}{}", BLINK, "\n".repeat(n)))
        .find(|text| ring.candidates(llhd_router::source_key(text, "blink"))[0] == 1)
        .expect("some salt lands on the stub");

    let response = client.request(&source_sim(&source)).unwrap();
    assert_eq!(
        response.get("ok"),
        Some(&Json::Bool(true)),
        "the retry on the next candidate must succeed: {}",
        response
    );

    let stats = client.request(&Json::obj([("type", Json::str("stats"))])).unwrap();
    assert!(router_counter(&stats, "retried") >= 1, "{}", stats);

    shutdown(&mut client);
    router.join().unwrap();
    let mut direct = Client::connect(real.addr()).unwrap();
    shutdown(&mut direct);
    real.join().unwrap();
}

#[test]
fn the_router_sheds_past_its_queue_cap() {
    let a = spawn_worker("shed-a");
    let router = spawn_router(vec![spec("w0", a.addr())], |config| {
        config.queue_cap = Some(1);
    });
    let mut client = Client::connect(router.addr()).unwrap();

    // A 3-job batch against a cap of 1 overshoots by 2: shed before any
    // worker sees it, with the hint scaled to the overshoot (10ms each).
    let job = Json::obj([
        ("source", Json::str(BLINK)),
        ("top", Json::str("blink")),
        ("until_ns", Json::Int(50)),
    ]);
    let response = client
        .request(&Json::obj([
            ("type", Json::str("batch")),
            ("jobs", Json::Arr(vec![job.clone(), job.clone(), job])),
        ]))
        .unwrap();
    assert_eq!(response.get("ok"), Some(&Json::Bool(false)), "{}", response);
    assert_eq!(error_kind(&response), "overloaded");
    let error = response.get("error").unwrap();
    assert_eq!(error.get("retryable"), Some(&Json::Bool(true)));
    assert_eq!(error.get("retry_after_ms").and_then(Json::as_int), Some(20));

    // A single job fits under the cap and goes through.
    let single = client.request(&source_sim(BLINK)).unwrap();
    assert_eq!(single.get("ok"), Some(&Json::Bool(true)), "{}", single);

    let stats = client.request(&Json::obj([("type", Json::str("stats"))])).unwrap();
    assert_eq!(router_counter(&stats, "shed"), 1);
    assert_eq!(
        stats
            .get("result")
            .and_then(|r| r.get("router"))
            .and_then(|r| r.get("queue_cap"))
            .and_then(Json::as_int),
        Some(1)
    );

    shutdown(&mut client);
    router.join().unwrap();
    let mut direct = Client::connect(a.addr()).unwrap();
    shutdown(&mut direct);
    a.join().unwrap();
}

#[test]
fn draining_every_worker_sheds_placements_until_undrain() {
    let a = spawn_worker("drain-a");
    let router = spawn_router(vec![spec("w0", a.addr())], |_| {});
    let mut client = Client::connect(router.addr()).unwrap();

    let ack = client
        .request(&Json::obj([
            ("type", Json::str("router.drain")),
            ("worker", Json::str("w0")),
        ]))
        .unwrap();
    assert_eq!(ack.get("ok"), Some(&Json::Bool(true)), "{}", ack);

    let response = client.request(&source_sim(BLINK)).unwrap();
    assert_eq!(response.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(error_kind(&response), "overloaded");
    assert_eq!(
        response.get("error").and_then(|e| e.get("retryable")),
        Some(&Json::Bool(true)),
        "{}",
        response
    );

    // Draining an unknown worker is a protocol error, not a crash.
    let unknown = client
        .request(&Json::obj([
            ("type", Json::str("router.drain")),
            ("worker", Json::str("nope")),
        ]))
        .unwrap();
    assert_eq!(unknown.get("ok"), Some(&Json::Bool(false)));
    assert_eq!(error_kind(&unknown), "protocol");

    let undrain = client
        .request(&Json::obj([
            ("type", Json::str("router.undrain")),
            ("worker", Json::str("w0")),
        ]))
        .unwrap();
    assert_eq!(undrain.get("ok"), Some(&Json::Bool(true)), "{}", undrain);
    let after = client.request(&source_sim(BLINK)).unwrap();
    assert_eq!(after.get("ok"), Some(&Json::Bool(true)), "{}", after);

    shutdown(&mut client);
    router.join().unwrap();
    let mut direct = Client::connect(a.addr()).unwrap();
    shutdown(&mut direct);
    a.join().unwrap();
}
