//! Hostile request lines against one server: every request line of the
//! protocol snapshot, every strict prefix of it, and every copy of it
//! with one byte flipped (XOR `0x01`, `0x20` or `0x80`). Each goes through
//! the connection loop on a connection of its own (a `shutdown` line
//! closes its connection), and every line in must get exactly one
//! response line out, a JSON object with a boolean `ok`, without a single
//! panic caught along the way.

use llhd_server::front::handle_connection;
use llhd_server::json::Json;
use llhd_server::{Server, ServerConfig};
use std::io::Cursor;

const SNAPSHOT: &str = include_str!("snapshots/protocol_v1.txt");

#[test]
fn every_prefix_and_byte_flip_of_a_request_gets_one_well_formed_response() {
    let mut requests: Vec<&str> = SNAPSHOT
        .lines()
        .filter_map(|line| line.strip_prefix("> "))
        .collect();
    assert!(requests.len() > 20, "the snapshot lost its request lines");
    // Shut down last, so the other requests meet a live server.
    requests.sort_by_key(|line| line.contains("\"shutdown\""));
    let mut inputs: Vec<Vec<u8>> = Vec::new();
    for line in &requests {
        let line = line.as_bytes();
        inputs.push(line.to_vec());
        inputs.extend((1..line.len()).map(|len| line[..len].to_vec()));
        for i in 0..line.len() {
            for mask in [0x01, 0x20, 0x80] {
                let mut flipped = line.to_vec();
                flipped[i] ^= mask;
                inputs.push(flipped);
            }
        }
    }

    let state = Server::new(ServerConfig::default()).state();
    let (total, mut answered_ok) = (inputs.len(), 0);
    for mut input in inputs {
        // A flip can make a newline, which splits the input in two; a
        // blank line is skipped unanswered, as on any connection.
        let lines = input
            .split(|&b| b == b'\n')
            .filter(|line| !String::from_utf8_lossy(line).trim().is_empty())
            .count();
        input.push(b'\n');
        let mut out = Vec::new();
        handle_connection(&state, Cursor::new(&input), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let shown = String::from_utf8_lossy(&input).into_owned();
        assert_eq!(text.lines().count(), lines, "{shown:?} -> {text}");
        for response in text.lines() {
            let json = Json::parse(response).unwrap_or_else(|e| panic!("{shown:?} -> {e}"));
            match json.get("ok") {
                Some(Json::Bool(ok)) => answered_ok += *ok as usize,
                _ => panic!("{shown:?} -> {response}"),
            }
        }
    }
    println!("hostile wire lines: {total} inputs, {answered_ok} answered ok");

    let (stats, _) = state.handle_line(r#"{"type":"stats"}"#);
    let load = stats.get("result").and_then(|r| r.get("load"));
    let panics = load.and_then(|l| l.get("panics_caught"));
    assert_eq!(panics, Some(&Json::Int(0)), "{stats}");
}
