//! Fuzz-generated designs through the wire protocol.
//!
//! The differential fuzzer normally drives the engines in-process; this
//! test closes the remaining gap by shipping generated designs through
//! the server's JSON protocol — inline source, both engines — and
//! demanding the same cross-engine agreement at the
//! protocol surface that the in-process driver demands of the APIs: the
//! rendered VCD coming back over TCP must be byte-identical between the
//! interpreter and the compiled engine, and must match an in-process
//! reference run of the same design.

use llhd_fuzz::{case_seed, DesignPlan};
use llhd_server::json::Json;
use llhd_server::{Client, Server, ServerConfig};
use llhd_sim::api::{EngineKind, SimSession};
use llhd_sim::SimConfig;

fn sim_request(fields: Vec<(&'static str, Json)>) -> Json {
    let mut all = vec![("type", Json::str("sim"))];
    all.extend(fields);
    Json::obj(all)
}

fn vcd_of(response: &Json) -> &str {
    assert_eq!(
        response.get("ok"),
        Some(&Json::Bool(true)),
        "request failed: {}",
        response
    );
    response
        .get("result")
        .and_then(|r| r.get("trace_vcd"))
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("response lacks result.trace_vcd: {}", response))
}

/// Generated designs, inline source, both engines: each must return the
/// byte-identical VCD, and it must equal the in-process reference.
#[test]
fn generated_designs_return_identical_vcd_across_engines_and_threads() {
    let running = Server::spawn_tcp(ServerConfig::default(), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(running.addr()).unwrap();

    // A few distinct generated topologies (the seeds are arbitrary but
    // fixed: nested, racing, and multi-cluster shapes all appear).
    for case in 0..4u64 {
        let seed = case_seed(0x517e, case);
        let plan = DesignPlan::generate(seed);
        let (design, module) = plan.build().unwrap();

        // In-process reference: the interpreter.
        let reference = SimSession::builder(&module, &design.top)
            .engine(EngineKind::Interpret)
            .config(SimConfig::until_nanos(design.until_ns))
            .build()
            .unwrap()
            .run()
            .unwrap()
            .trace
            .to_vcd("1fs");

        for engine in ["interpret", "compile"] {
            let response = client
                .request(&sim_request(vec![
                    ("source", Json::str(&design.source)),
                    ("top", Json::str(&design.top)),
                    ("engine", Json::str(engine)),
                    ("until_ns", Json::Int(design.until_ns as i128)),
                    ("trace", Json::str("vcd")),
                    ("id", Json::Int(case as i128)),
                ]))
                .unwrap();
            assert_eq!(
                vcd_of(&response),
                reference,
                "seed {seed:#018x}: wire VCD ({engine}) != in-process reference",
            );
        }
    }

    let ack = client
        .request(&Json::obj([("type", Json::str("shutdown"))]))
        .unwrap();
    assert_eq!(ack.get("ok"), Some(&Json::Bool(true)));
    running.join().unwrap();
}
