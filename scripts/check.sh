#!/usr/bin/env bash
# Tier-1 gate: everything that must pass before a change lands.
# Run from the repository root: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Serial-vs-parallel differential oracles resolve the host-default
# ("all cores") evaluation engine through this override, so the parallel
# engine and intra-layer sweep paths are genuinely exercised even on a
# 1-CPU CI container, where available parallelism would resolve to one
# worker and the parallel columns of the conformance matrices would
# silently collapse into the serial ones. Results are contractually
# bit-identical for every worker count, so this changes nothing else.
export EDSE_TEST_THREADS=2

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test -q -p edse-core --features validation (checked disk-cache reads)"
# Opening a cache verifies every record's checksum; the validation
# feature additionally re-verifies checksum and key hash on every read,
# which catches bytes changed after open. CI exercises that path too.
cargo test -q -p edse-core --features validation

echo "==> conformance: golden fixtures, differential oracles, paper bounds"
# The harness must stay fast enough to gate every change; the timeout is
# the budget, not an estimate (the suite runs in well under a minute).
timeout 120 cargo test -q -p conformance

echo "==> executor stress: concurrent tenants on the shared pool (bounded)"
# `#[ignore]`d in the normal suite: several tenant threads run the full
# threads x chunk x technique matrix concurrently against the one shared
# work-stealing pool, and every tenant must see bit-identical results
# with zero thread spawns after warm-up. EDSE_TEST_THREADS=2 (exported
# above) bounds the pool; the timeout bounds the step.
timeout 120 cargo test --release -q -p conformance --test executor_stress -- --ignored

echo "==> proptest regression files are committed"
# A failing property run appends its counterexample seed under
# proptest-regressions/; landing a change without committing that seed
# would lose the counterexample.
dirty="$(git status --porcelain -- 'crates/*/proptest-regressions')"
if [ -n "$dirty" ]; then
    echo "uncommitted proptest regression entries:" >&2
    echo "$dirty" >&2
    echo "commit the recorded counterexample seeds (or fix and remove them)" >&2
    exit 1
fi

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo doc --workspace --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> micro-bench smoke: every bench body runs once (--test mode)"
# Criterion's --test mode executes each registered bench exactly once with
# no measurement loop, so a broken bench fails the gate in seconds instead
# of surfacing at the next perf run.
timeout 300 cargo bench -q -p bench -- --test > /dev/null

echo "==> telemetry smoke: fig04_toy_trace --trace-out + trace_report"
trace_tmp="$(mktemp -d)"
trap 'rm -rf "$trace_tmp"' EXIT
cargo run --release -q -p bench --bin fig04_toy_trace -- \
    --iters 8 --trace-out "$trace_tmp/toy.jsonl" > /dev/null
test -s "$trace_tmp/toy.jsonl" || {
    echo "trace file is empty" >&2
    exit 1
}
# trace_report exits non-zero on any unparseable JSONL line. Capture to a
# file rather than piping into grep -q: grep closing the pipe early would
# turn the report's remaining output into a broken-pipe failure under
# pipefail.
cargo run --release -q -p bench --bin trace_report -- "$trace_tmp/toy.jsonl" \
    > "$trace_tmp/toy.report"
grep -q "Search narrative" "$trace_tmp/toy.report" || {
    echo "trace report missing the search narrative" >&2
    exit 1
}

echo "==> forensics smoke: edse-trace summary / why / flamegraph / chrome"
edse_trace=target/release/edse-trace
"$edse_trace" summary "$trace_tmp/toy.jsonl" > "$trace_tmp/toy.summary"
grep -q "Candidate funnel" "$trace_tmp/toy.summary" || {
    echo "edse-trace summary missing the candidate funnel" >&2
    exit 1
}
"$edse_trace" why "$trace_tmp/toy.jsonl" best > "$trace_tmp/toy.why"
grep -q "new incumbent" "$trace_tmp/toy.why" || {
    echo "edse-trace why best missing the incumbent chain" >&2
    exit 1
}
"$edse_trace" flamegraph "$trace_tmp/toy.jsonl" > "$trace_tmp/toy.folded"
test -s "$trace_tmp/toy.folded" || {
    echo "flamegraph export is empty" >&2
    exit 1
}
# The chrome subcommand self-validates its JSON before printing, and the
# empty-trace guard must hold: an empty file is a hard failure, not an
# empty report.
"$edse_trace" chrome "$trace_tmp/toy.jsonl" > "$trace_tmp/toy.chrome.json"
grep -q '"traceEvents"' "$trace_tmp/toy.chrome.json" || {
    echo "chrome export missing traceEvents" >&2
    exit 1
}
: > "$trace_tmp/empty.jsonl"
if "$edse_trace" summary "$trace_tmp/empty.jsonl" 2> /dev/null; then
    echo "edse-trace accepted an empty trace" >&2
    exit 1
fi

echo "==> checkpoint smoke: SIGKILL fig04_toy_trace mid-search, resume, diff"
fig04=target/release/fig04_toy_trace
ck="$trace_tmp/fig04.ckpt"
# Uninterrupted reference run.
"$fig04" --iters 25 --out "$trace_tmp/a.json" > /dev/null
# Checkpointed run, killed as soon as the first snapshot lands (the two
# searches snapshot to $ck.hypermapper and $ck.explainable).
"$fig04" --iters 25 --checkpoint "$ck" --checkpoint-every 1 \
    --out "$trace_tmp/b.json" > /dev/null &
fig04_pid=$!
while [ ! -f "$ck.hypermapper" ] && kill -0 "$fig04_pid" 2>/dev/null; do
    sleep 0.01
done
kill -9 "$fig04_pid" 2>/dev/null || true
wait "$fig04_pid" 2>/dev/null || true
# Resume from the snapshots and finish; the result summary (no wall-clock
# fields) must be bit-identical to the uninterrupted run's.
"$fig04" --iters 25 --checkpoint "$ck" --checkpoint-every 1 --resume \
    --out "$trace_tmp/b.json" > /dev/null
diff "$trace_tmp/a.json" "$trace_tmp/b.json" || {
    echo "resumed run diverged from the uninterrupted run" >&2
    exit 1
}

echo "==> warm-start smoke: run fig04_toy_trace twice with --cache-dir, diff"
cache="$trace_tmp/cache"
# Cold run populates the cache; the warm rerun must be answered from disk
# (disk_cache/hit counters in the trace) and stay byte-identical.
"$fig04" --iters 25 --cache-dir "$cache" --out "$trace_tmp/cold.json" > /dev/null
# Tear the newest segment's tail as a crash mid-append would: the warm
# run must drop the torn record (disk_cache/torn_tails in the trace),
# recompute it, and still match the cold run exactly.
newest="$(ls "$cache"/seg-*.edc | sort | tail -n 1)"
truncate -s -5 "$newest"
"$fig04" --iters 25 --cache-dir "$cache" --out "$trace_tmp/warm.json" \
    --trace-out "$trace_tmp/warm.jsonl" > /dev/null
diff "$trace_tmp/cold.json" "$trace_tmp/warm.json" || {
    echo "warm-cached run diverged from the cold run" >&2
    exit 1
}
grep -q '"disk_cache/hit"' "$trace_tmp/warm.jsonl" || {
    echo "warm run recorded no disk-cache hits" >&2
    exit 1
}
grep -q '"disk_cache/torn_tails"' "$trace_tmp/warm.jsonl" || {
    echo "warm run did not report the torn segment tail" >&2
    exit 1
}
for f in "$cache"/*; do
    case "$(basename "$f")" in
    seg-*.edc) ;;
    *)
        echo "cache directory holds a non-segment file: $f" >&2
        exit 1
        ;;
    esac
done

echo "==> service smoke: edse-serve --self-check (in-process e2e over HTTP)"
# Boots the full server on an ephemeral port, runs two concurrent toy
# jobs over the shared disk cache, streams events, pauses/resumes/
# cancels a third job (asserting the resumable snapshot), and scrapes
# the merged /metrics — all in one process, no curl needed.
# (`cargo build --release` above builds the root package only; the
# server binary needs its own build invocation.)
cargo build --release -q -p edse-serve
timeout 60 target/release/edse-serve --self-check

echo "==> benchmark smoke: perfbench builds against the workspace and runs"
# perfbench/ is a package with its own workspace that builds against the
# crates by path, so nothing above compiles it: an API break it depends on
# would otherwise only surface when the benchmark runs. Its smoke test runs
# every workload once at minimal size. The timeout covers a cold release
# build of its separate target directory.
timeout 300 cargo test --release -q --offline --manifest-path perfbench/Cargo.toml

echo "All checks passed."
