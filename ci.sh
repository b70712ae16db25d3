#!/bin/sh
# The canonical verification gate for this repository. Keep in sync with
# ROADMAP.md's "Tier-1 verify" line; CI and local pre-merge checks run this.
# It checks correctness only, so it passes or fails the same way on every
# machine: timing is compared by `benchmark ... compare A.json B.json`
# between two commits on one host, never against a committed file.
set -eu
cd "$(dirname "$0")"

# Wire-write guard: a `write!`/`writeln!` onto a stream sends one segment
# per formatted token on a TCP_NODELAY socket; every line goes out through
# `llhd_server::wire::write_line` (one encode, one `write_all`) instead.
if grep -rnE '\bwriteln?!\(' crates/llhd-server/src crates/llhd-router/src --exclude=wire.rs --exclude=json.rs; then echo "ci.sh: write!/writeln! outside wire.rs/json.rs; use wire::write_line" >&2; exit 1; fi

# One-thread guard: a simulation runs on one thread — one serial
# activation loop shared by both engines. No run-loop file spawns or
# scopes threads (`run_batch` in api.rs parallelizes across whole jobs,
# not within one, and is not covered).
if grep -nE 'std::thread' crates/llhd-sim/src/sched.rs crates/llhd-sim/src/driver.rs crates/llhd-sim/src/engine.rs crates/llhd-blaze/src/engine.rs; then echo "ci.sh: std::thread in a run-loop file; a simulation runs on one thread" >&2; exit 1; fi

# One-connection-per-call guard: a router call to a worker checks out a
# plain `llhd_server::Client` (idle or fresh), writes its line and reads
# the one reply on the calling thread. No reader thread, reply channel or
# waiter FIFO may come back, so a health ping never queues behind a sim.
if grep -nE 'std::thread|mpsc|VecDeque' crates/llhd-router/src/pool.rs; then
    echo "ci.sh: pool.rs names std::thread/mpsc/VecDeque; a worker call reads its reply on the calling thread" >&2; exit 1
fi

# One-session-table guard: an interactive session is an entry in the
# server's session table, and a session command runs on the thread of
# the connection that sent it, under the entry's lock. No session
# thread, command enum or reply channel may come back.
if grep -nE '\bSessionCmd\b|\bfn session_thread\b|mpsc' crates/llhd-server/src/server.rs; then
    echo "ci.sh: server.rs names SessionCmd/session_thread/mpsc; run session commands on the connection thread" >&2; exit 1
fi

# One-design-store guard: the server keeps its designs in one store,
# the `DesignCache`, whose entries own the module, the source text and
# the artifacts under one key, with one capacity and one LRU order. No
# second module table with its own clock and eviction may come back.
if grep -nE '\bstruct Registry\b' crates/llhd-server/src/server.rs; then
    echo "ci.sh: server.rs defines a struct Registry; keep modules in the DesignCache store" >&2; exit 1
fi

# One-instruction-set guard: blaze has no lowering knobs and one
# instruction set. `BlazeOptions`, `compile_design_with` and
# `compile_unit_with` are inert shims that only the frozen `benchmark/`
# package still calls (ROADMAP item 1); nothing in the workspace names
# them outside their definitions in compile.rs and their one re-export.
# The compile walk emits `SuperOp`s directly and fusion happens only in
# words, so no second op enum (`enum Op`) and no value-form fusion
# (`SuperOp::Sel`/`CmpBr`/`BinDrv`) may come back.
if grep -rnE '\b(BlazeOptions|compile_design_with|compile_unit_with)\b' crates tests examples |
    grep -v '^crates/llhd-blaze/src/compile\.rs:' |
    grep -vE '^crates/llhd-blaze/src/lib\.rs:[0-9]+:pub use compile::\{compile_design_with, BlazeOptions\};$'; then
    echo "ci.sh: a blaze knob shim is named outside llhd-blaze; call compile_design" >&2; exit 1
fi
if grep -rnE '\benum Op\b|\bSuperOp::(Sel|CmpBr|BinDrv)\b' crates/llhd-blaze/src; then
    echo "ci.sh: a second blaze instruction set or a value-form fusion is back; emit SuperOps and fuse in words" >&2; exit 1
fi
# One-dispatcher guard for the interpreter: one loop (`run_body`) runs
# process, entity and function bodies over one slot layout, so no second
# function-body dispatcher (`function_inst`), frame (`Frame`) or control
# result (`Flow`) may come back.
if grep -nE '\bfn function_inst\b|\bstruct Frame\b|\benum Flow\b' crates/llhd-sim/src/engine.rs; then
    echo "ci.sh: a second interpreter dispatcher is back; run every body through run_body" >&2; exit 1
fi

# Format gate for the readers, the lowering layer, both engines and the
# serving stack: `llhd::assembly`, `llhd::bitcode`, `llhd::analysis`,
# every `llhd-opt` source, every `llhd-sim` and `llhd-blaze` source and
# every `llhd-server` and `llhd-router` source stay rustfmt-clean. The
# rest of the workspace is not rustfmt-clean yet, so `cargo fmt --check`
# cannot be the gate; a file joins this list once it is formatted.
rustfmt --edition 2021 --check crates/llhd/src/assembly/*.rs \
    crates/llhd/src/bitcode/*.rs crates/llhd/src/analysis/*.rs \
    crates/llhd-opt/src/*.rs crates/llhd-opt/src/passes/*.rs \
    crates/llhd-sim/src/*.rs crates/llhd-blaze/src/*.rs \
    crates/llhd-server/src/*.rs crates/llhd-router/src/*.rs || {
    echo "ci.sh: a formatted layer is not rustfmt-clean; run rustfmt --edition 2021 on it" >&2
    exit 1
}

# Lint gate: the workspace is clippy-clean and stays that way. Runs first
# (dev profile) so style/correctness lints fail fast, before the release
# build. Skippable only where clippy is genuinely unavailable.
if [ "${LLHD_SKIP_CLIPPY:-0}" != "1" ] && cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --workspace --all-targets -- -D warnings
    # A second pass with every feature on lints the fault-injection
    # module (src/fault.rs, tests/chaos.rs), which the default set skips.
    cargo clippy --workspace --all-targets --all-features -- -D warnings
fi

# Rustdoc gate: the public API documentation (including intra-doc links)
# must build warning-free. --no-deps keeps it fast; doctests themselves
# run as part of `cargo test` below.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

# Tests run in release so they reuse the artifacts of the build above
# instead of recompiling the whole workspace in the dev profile.
cargo build --release --workspace --all-targets
cargo test -q --release --workspace

# The repo benchmark's own check (benchmark/ is a package of its own, not
# a workspace member): it runs every workload in `--quick` mode and
# compares every golden digest in benchmark/golden/digests.txt, so "every
# VCD digest unchanged" is part of the gate. It measures nothing here.
cargo test -q --release --offline --manifest-path benchmark/Cargo.toml
echo "ci.sh: benchmark package check OK (golden digests match)"

# Paper-scale gate: every design built for 1 M testbench cycles
# (`Design::build_for`) runs to the end on both engines with equal
# statistics — the cycle counts of the paper's Table 2 are reachable
# because a testbench `repeat` is a loop in the IR. #[ignore]d because it
# is release-weight (about a minute); this is its one canonical
# invocation.
cargo test -q --release -p llhd-designs --lib -- \
    --ignored --exact tests::million_cycle_runs_agree_across_engines
echo "ci.sh: paper-scale (1 M cycles) gate OK"

# Chaos gate: the deterministic fault-injection harness (see
# "Failure model" in ARCHITECTURE.md) storms a live server with injected
# panics, broken reads, and queue pressure under a fixed seed, and
# asserts the process survives serving well-formed responses throughout.
# The fixed seed keeps CI replayable; the hard timeout turns a wedged
# server (the exact failure the harness exists to catch) into a loud
# failure instead of a hung pipeline.
LLHD_CHAOS_SEED=42 timeout 300 \
    cargo test -q --release -p llhd-server --features fault-injection --test chaos || {
    echo "ci.sh: chaos test failed or timed out (seed 42)" >&2
    exit 1
}
echo "ci.sh: chaos test OK (seed 42)"

# Differential fuzz smoke gate: 400 freshly generated designs, each run
# on the reference interpreter and on blaze (800 engine runs, as many as
# the 160 cases x 5 knob variants before blaze lost its knobs) with
# constrained-random stimulus including checkpoint/restore
# cuts — any trace/VCD/stats/peek mismatch fails the gate (see
# "Differential fuzzing" in ARCHITECTURE.md). The fixed seed keeps CI replayable; a
# divergence writes a shrunk replay artifact and prints the command to
# reproduce it. To bump the seed set after an engine change, pick a new
# base seed, run `fuzz --seed <new> --cases 1000` locally until clean,
# then update both the seed here and this comment's history: 0x11d4.
# The hard timeout turns a wedged engine into a loud failure.
timeout 300 ./target/release/fuzz --seed 0x11d4 --cases 400 \
    --artifact-dir target/fuzz-artifacts || {
    echo "ci.sh: differential fuzz smoke gate failed (seed 0x11d4)" >&2
    echo "ci.sh: any artifact written above replays the divergence" >&2
    exit 1
}
# The committed regression corpus replays inside `cargo test` (the
# corpus test in llhd-designs), so promoted finds are already covered.
echo "ci.sh: differential fuzz smoke gate OK (seed 0x11d4)"

# Server smoke test: a request → response → shutdown round-trip through
# the real llhd-server binary over stdio (the same protocol the TCP mode
# speaks; see docs/PROTOCOL.md). Seven requests in — the third a
# self-recursive design, which must come back as a `call depth limit`
# error instead of overflowing the stack and killing the process, the
# fourth a time literal past the end of representable time, which must
# come back as a source error naming the literal instead of wrapping
# around, the fifth a two-job batch run on the connection's own thread,
# which must answer two ok results, and the sixth a final `stats`, which
# must report no job left in flight — five ok-responses and those two
# errors out, clean exit, under a hard timeout so a server that stops
# reading or never exits fails the gate instead of hanging it.
SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR"' EXIT
cat > "$SMOKE_DIR/requests" <<'EOF'
{"type":"ping","id":1}
{"type":"sim","id":2,"source":"proc @blink () -> (i1$ %led) { entry: %on = const i1 1 %off = const i1 0 %t = const time 5ns drv i1$ %led, %on after %t wait %next for %t next: drv i1$ %led, %off after %t wait %entry for %t }","top":"blink","until_ns":100}
{"type":"sim","id":3,"source":"func @f (i8 %x) i8 { entry: %r = call i8 @f (%x) ret i8 %r } proc @p () -> () { entry: %v = const i8 1 %r = call i8 @f (%v) halt }","top":"p","until_ns":10}
{"type":"sim","id":4,"source":"proc @p () -> (i1$ %s) { entry: %t = const time 340282366920938463463374607431768211455s wait %entry for %t }","top":"p","until_ns":10}
{"type":"batch","id":5,"jobs":[{"source":"proc @blink () -> (i1$ %led) { entry: %on = const i1 1 %off = const i1 0 %t = const time 5ns drv i1$ %led, %on after %t wait %next for %t next: drv i1$ %led, %off after %t wait %entry for %t }","top":"blink","until_ns":100},{"design":"1ad3ee7740fe7fb7a31948fd806ba3c6","top":"blink","until_ns":100}]}
{"type":"stats","id":6}
{"type":"shutdown","id":7}
EOF
timeout 60 ./target/release/llhd-server --stdio --stats-interval 0 \
    < "$SMOKE_DIR/requests" > "$SMOKE_DIR/responses" || {
    echo "ci.sh: server stdio smoke test failed or timed out" >&2
    cat "$SMOKE_DIR/responses" >&2
    exit 1
}
# (`|| true`: grep -c exits 1 on zero matches, which `set -e` would turn
# into a silent abort before the diagnostics below could print.)
OK_COUNT=$(grep -c '"ok":true' "$SMOKE_DIR/responses" || true)
if [ "$OK_COUNT" != "5" ]; then
    echo "ci.sh: server stdio smoke test failed; responses were:" >&2
    cat "$SMOKE_DIR/responses" >&2
    exit 1
fi
if [ "$(grep -c '"ok":false' "$SMOKE_DIR/responses" || true)" != "2" ] ||
    ! grep '"ok":false' "$SMOKE_DIR/responses" | grep -q 'call depth limit'; then
    echo "ci.sh: server smoke test: the recursive design did not get a call-depth error:" >&2
    cat "$SMOKE_DIR/responses" >&2
    exit 1
fi
if ! grep '"ok":false' "$SMOKE_DIR/responses" |
    grep -q "invalid time literal '340282366920938463463374607431768211455s'"; then
    echo "ci.sh: server smoke test: the overflowing time literal was not rejected:" >&2
    cat "$SMOKE_DIR/responses" >&2
    exit 1
fi
grep -q '"signal_changes":20' "$SMOKE_DIR/responses" || {
    echo "ci.sh: server smoke test: unexpected sim result:" >&2
    cat "$SMOKE_DIR/responses" >&2
    exit 1
}
if [ "$(grep '"id":5,' "$SMOKE_DIR/responses" | grep -o '{"ok":true,"result"' | wc -l)" != "2" ]; then
    echo "ci.sh: server smoke test: the two-job batch did not answer two ok results:" >&2
    cat "$SMOKE_DIR/responses" >&2
    exit 1
fi
grep '"id":6,' "$SMOKE_DIR/responses" | grep -q '"inflight":0' || {
    echo "ci.sh: server smoke test: the final stats does not report \"inflight\":0:" >&2
    cat "$SMOKE_DIR/responses" >&2
    exit 1
}
echo "ci.sh: server stdio smoke test OK"

# Router smoke test: the fleet tier end to end through the real binaries.
# Two workers on ephemeral ports, a stdio router in front: ping, a
# source-keyed sim, a design-key sim (served via the router's placement
# memo), a fleet stats rollup, shutdown. Five ok-responses out, workers
# still alive afterwards (the router is a tier, not their supervisor),
# all under a hard timeout. The design key is the one-line blink
# source's content fingerprint, deterministic for that exact text (the
# id-2 request above ships it, and its response echoes the key).
./target/release/llhd-server --tcp 127.0.0.1:0 --stats-interval 0 --server-id smoke-w0 \
    2> "$SMOKE_DIR/w0.log" & W0_PID=$!
./target/release/llhd-server --tcp 127.0.0.1:0 --stats-interval 0 --server-id smoke-w1 \
    2> "$SMOKE_DIR/w1.log" & W1_PID=$!
trap 'kill $W0_PID $W1_PID 2>/dev/null; rm -rf "$SMOKE_DIR"' EXIT
for LOG in w0.log w1.log; do
    TRIES=0
    until grep -q 'listening on' "$SMOKE_DIR/$LOG"; do
        TRIES=$((TRIES + 1))
        if [ "$TRIES" -gt 100 ]; then
            echo "ci.sh: router smoke test: a worker never announced its port" >&2
            exit 1
        fi
        sleep 0.1
    done
done
W0_ADDR=$(sed -n 's/.*listening on //p' "$SMOKE_DIR/w0.log" | head -n 1)
W1_ADDR=$(sed -n 's/.*listening on //p' "$SMOKE_DIR/w1.log" | head -n 1)
cat > "$SMOKE_DIR/router-requests" <<'EOF'
{"type":"ping","id":1}
{"type":"sim","id":2,"source":"proc @blink () -> (i1$ %led) { entry: %on = const i1 1 %off = const i1 0 %t = const time 5ns drv i1$ %led, %on after %t wait %next for %t next: drv i1$ %led, %off after %t wait %entry for %t }","top":"blink","until_ns":100}
{"type":"sim","id":3,"design":"1ad3ee7740fe7fb7a31948fd806ba3c6","top":"blink","until_ns":100}
{"type":"stats","id":4}
{"type":"shutdown","id":5}
EOF
timeout 60 ./target/release/llhd-router --stdio \
    --worker "w0=$W0_ADDR" --worker "w1=$W1_ADDR" \
    < "$SMOKE_DIR/router-requests" > "$SMOKE_DIR/router-responses" || {
    echo "ci.sh: router stdio smoke test failed or timed out" >&2
    cat "$SMOKE_DIR/router-responses" >&2
    exit 1
}
ROUTER_OK=$(grep -c '"ok":true' "$SMOKE_DIR/router-responses" || true)
if [ "$ROUTER_OK" != "5" ]; then
    echo "ci.sh: router smoke test failed; responses were:" >&2
    cat "$SMOKE_DIR/router-responses" >&2
    exit 1
fi
# The keyed sim (id 3) must have been served, not rejected as unknown —
# the placement memo routes it to the worker that elaborated the source.
grep -q '"id":3,"result":{"design":"1ad3ee7740fe7fb7a31948fd806ba3c6"' \
    "$SMOKE_DIR/router-responses" || {
    echo "ci.sh: router smoke test: keyed sim was not served from the fleet:" >&2
    cat "$SMOKE_DIR/router-responses" >&2
    exit 1
}
# The rollup names both workers by their self-reported identity.
for WID in smoke-w0 smoke-w1; do
    grep -q "\"server_id\":\"$WID\"" "$SMOKE_DIR/router-responses" || {
        echo "ci.sh: router smoke test: stats rollup is missing $WID:" >&2
        cat "$SMOKE_DIR/router-responses" >&2
        exit 1
    }
done
# The workers outlive the router's shutdown.
for PID in $W0_PID $W1_PID; do
    kill -0 "$PID" 2>/dev/null || {
        echo "ci.sh: router smoke test: a worker died with the router" >&2
        exit 1
    }
done
kill $W0_PID $W1_PID 2>/dev/null
wait $W0_PID $W1_PID 2>/dev/null || true
trap 'rm -rf "$SMOKE_DIR"' EXIT
echo "ci.sh: router stdio smoke test OK"
