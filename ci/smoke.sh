#!/usr/bin/env bash
# End-to-end smoke checks of the st-bench binaries, one mode at a time.
#
#   bash ci/smoke.sh MODE   # run one mode from the repo root
#   bash ci/smoke.sh list   # print the modes, one per line
#
# Each mode builds the release binaries, writes its runs under
# smoke-out/MODE/ and exits nonzero on the first failed assertion. The
# CI `smoke` job runs every mode as one matrix cell.
set -euo pipefail

MODES=(repro degraded kernel ingest chaos serve console usage)
BIN=${CARGO_TARGET_DIR:-target}/release

die() {
  echo "smoke: $*" >&2
  exit 1
}

# expect_exit CODE CMD...: CMD must exit with CODE.
expect_exit() {
  local want=$1 got=0
  shift
  "$@" || got=$?
  [ "$got" -eq "$want" ] || die "'$*' must exit $want, got $got"
}

# The artifact files of a run directory: every .svg/.json but BENCH_*.
artifacts() {
  find "$1" -maxdepth 1 \( -name '*.svg' -o -name '*.json' \) ! -name 'BENCH_*' -printf '%f\n' |
    sort
}

# same_artifacts REF DIR...: each DIR holds REF's artifact set, byte for byte.
same_artifacts() {
  local ref=$1 dir f
  shift
  for dir in "$@"; do
    diff <(artifacts "$ref") <(artifacts "$dir") || die "$dir: artifact set differs from $ref"
    for f in $(artifacts "$ref"); do
      cmp "$ref/$f" "$dir/$f"
    done
  done
}

# ledger DIR... <<'EOF' ... EOF: run the python on stdin, where row(DIR)
# is the one ledger row of DIR and sys.argv[1:] are the DIRs.
ledger() {
  python3 -c 'import json, sys
def row(d):
    rows = [json.loads(l) for l in open(d + "/BENCH_ledger.jsonl") if l.strip()]
    assert len(rows) == 1, (d, rows)
    return rows[0]
'"$(cat)" "$@"
}

query() {
  "$BIN/serve" --connect "$ADDR" --query "$1"
}

# answers QUERY PATTERN: the running service's answer to QUERY holds PATTERN.
answers() {
  query "$1" > "$O/answer.json"
  grep -q "$2" "$O/answer.json" || die "'$1' answered $(cat "$O/answer.json")"
}

# start_serve LOG ARGS...: boot `serve` in the background and wait for
# its listen line; sets SERVE_PID and ADDR.
start_serve() {
  local log=$1
  shift
  "$BIN/serve" "$@" > "$log" 2> "$log.err" &
  SERVE_PID=$!
  for _ in $(seq 1 150); do
    grep -q '^listening on ' "$log" && break
    sleep 0.2
  done
  ADDR=$(sed -n 's/^listening on //p' "$log" | head -1)
  [ -n "$ADDR" ] || { cat "$log.err"; die "service never listened"; }
}

# boot_serve LOG ARGS...: start_serve, then poll `status` until the
# final epoch is published; leaves the answer in $O/status.json.
boot_serve() {
  start_serve "$@"
  for _ in $(seq 1 600); do
    query status > "$O/status.json" || true
    grep -q '"final_epoch":true' "$O/status.json" && return
    sleep 1
  done
  die "no final epoch: $(cat "$O/status.json")"
}

# One 0.004 pair at parallelism 1 and 4: artifacts, metrics, the
# regression gate, the trace and the ledger must all agree.
mode_repro() {
  "$BIN/repro" --scale 0.004 --out "$O/p1" --parallelism 1 --metrics
  # The second run diffs itself against the first inline: deterministic
  # drift fails it (DESIGN.md §14).
  "$BIN/repro" --scale 0.004 --out "$O/p4" --parallelism 4 --metrics \
    --baseline "$O/p1/BENCH_metrics.json"
  same_artifacts "$O/p1" "$O/p4"
  grep -q derive_s "$O/p1/BENCH_timings.json"
  grep -q derive_s "$O/p4/BENCH_timings.json"
  python3 - "$O" <<'EOF'
import json, sys
o = sys.argv[1]
m = json.load(open(o + "/p1/BENCH_metrics.json"))
assert m["schema"] == "st-obs/v1", m["schema"]
assert m["parallelism"] == 1
det, wall = m["deterministic"], m["wall_clock"]
for section in ("counters", "gauges", "histograms", "series"):
    assert section in det, f"missing deterministic.{section}"
for prefix in ("datagen.records", "sanitize.clean",
               "bst.em_iterations_total", "store.rows", "render.jobs"):
    assert any(k.startswith(prefix) for k in det["counters"]), prefix
for span in ("generate", "fit", "derive", "render"):
    assert span in wall["spans"], f"missing span {span}"
d4 = json.load(open(o + "/p4/BENCH_metrics.json"))["deterministic"]
assert json.dumps(det, sort_keys=True) == json.dumps(d4, sort_keys=True), \
    "deterministic metrics diverged between parallelism 1 and 4"
EOF
  grep -q '^## Metrics' "$O/p1/report.md"
  # The rendered ## Metrics section inherits the contract too.
  for p in p1 p4; do
    sed -n '/^## Metrics/,/^## Artifacts/p' "$O/$p/report.md" > "$O/metrics-$p.md"
  done
  cmp "$O/metrics-p1.md" "$O/metrics-p4.md"
  "$BIN/obs-diff" "$O/p1/BENCH_metrics.json" "$O/p4/BENCH_metrics.json"
  python3 - "$O" <<'EOF'
import json, sys
o = sys.argv[1]
m = json.load(open(o + "/p4/BENCH_metrics.json"))
m["deterministic"]["counters"]["render.jobs"] += 1
json.dump(m, open(o + "/perturbed.json", "w"))
EOF
  expect_exit 1 "$BIN/obs-diff" "$O/p1/BENCH_metrics.json" "$O/perturbed.json" > "$O/gate-report.md"
  grep -q 'render.jobs' "$O/gate-report.md"
  python3 - "$O" <<'EOF'
import json, sys
o = sys.argv[1]
def strip(v):
    if isinstance(v, dict):
        return {k: strip(x) for k, x in v.items() if k not in ("ts", "dur")}
    if isinstance(v, list):
        return [strip(x) for x in v]
    return v
t1 = json.load(open(o + "/p1/BENCH_trace.json"))
t4 = json.load(open(o + "/p4/BENCH_trace.json"))
assert t1["displayTimeUnit"] == "ms"
evs = t1["traceEvents"]
assert all("name" in e and "ph" in e and "pid" in e for e in evs)
assert any(e["ph"] == "X" for e in evs), "no span events"
assert any(e["ph"] == "i" for e in evs), "no lifecycle events"
assert strip(t1) == strip(t4), "trace deterministic fields diverged across parallelism"
EOF
  ledger "$O/p1" "$O/p4" <<'EOF'
r1, r4 = row(sys.argv[1]), row(sys.argv[2])
assert r1["schema"] == r4["schema"] == "st-ledger/v2"
assert r1["mode"] == r4["mode"] == "repro"
assert r1["artifact_hash"] == r4["artifact_hash"], "artifact hash must be parallelism-invariant"
assert r1["parallelism"] == 1 and r4["parallelism"] == 4
EOF
}

# A panicking render job plus 2% dirty records: every other artifact is
# written, ## Health is populated, and the run exits 1.
mode_degraded() {
  expect_exit 1 "$BIN/repro" --scale 0.004 --out "$O/p1" --parallelism 1 \
    --dirty-rate 0.02 --inject-fail fig08
  grep -q '^## Health' "$O/p1/report.md"
  grep -q '1 failed' "$O/p1/report.md"
  grep -q 'quarantine reasons:' "$O/p1/report.md"
  grep -q 'duplicate-id' "$O/p1/report.md"
  for f in degraded_fig08.json table1.json fig09a.svg; do
    test -f "$O/p1/$f"
  done
  # --allow-degraded forgives it, and the degraded set is parallelism-invariant.
  "$BIN/repro" --scale 0.004 --out "$O/p4" --parallelism 4 \
    --dirty-rate 0.02 --inject-fail fig08 --allow-degraded
  same_artifacts "$O/p1" "$O/p4"
  "$BIN/repro" --scale 0.004 --out "$O/allowed" --parallelism 2 \
    --inject-fail fig08 --allow-degraded
}

# Scale 0.05, the kernel benchmark point (DESIGN.md §15), at two
# parallelism levels, against the pinned artifact hash.
mode_kernel() {
  for p in 1 4; do
    "$BIN/repro" --scale 0.05 --out "$O/p$p" --parallelism $p --metrics
  done
  same_artifacts "$O/p1" "$O/p4"
  "$BIN/obs-diff" "$O/p1/BENCH_metrics.json" "$O/p4/BENCH_metrics.json"
  ledger "$O/p1" "$O/p4" <<'EOF'
r1, r4 = row(sys.argv[1]), row(sys.argv[2])
# Pinned, not only compared: a generator change that shifts both
# parallelism levels the same way must still fail here.
for r in (r1, r4):
    assert r["artifact_hash"] == "09e6051311229de9", ("scale-0.05 artifact hash moved", r["artifact_hash"])
    assert r["artifact_files"] == 91, ("artifact count", r["artifact_files"])
    for stage in ("generate_s", "fit_s", "derive_s", "render_s"):
        assert r[stage] >= 0.0, (stage, r)
print("generate p1: %.3fs  p4: %.3fs" % (r1["generate_s"], r4["generate_s"]))
print("fit+derive p1: %.3fs  p4: %.3fs" % (r1["fit_s"] + r1["derive_s"], r4["fit_s"] + r4["derive_s"]))
EOF
}

# Chunked replays at two chunk plans and two parallelism levels hit the
# batch artifacts byte for byte (DESIGN.md §17).
mode_ingest() {
  "$BIN/repro" --scale 0.05 --out "$O/batch" --parallelism 4 --metrics
  "$BIN/ingest" --scale 0.05 --out "$O/c500-p1" --parallelism 1 --chunk-rows 500 --metrics
  "$BIN/ingest" --scale 0.05 --out "$O/c2048-p4" --parallelism 4 --chunk-rows 2048 --seal-rows 512
  # Per-chunk work is parallelism-invariant at a fixed chunk plan; chunk
  # counts differ across plans, so the baseline pairs equal plans only.
  "$BIN/ingest" --scale 0.05 --out "$O/c500-p4" --parallelism 4 --chunk-rows 500 --metrics \
    --baseline "$O/c500-p1/BENCH_metrics.json"
  same_artifacts "$O/batch" "$O/c500-p1" "$O/c2048-p4" "$O/c500-p4"
  "$BIN/obs-diff" "$O/c500-p1/BENCH_metrics.json" "$O/c500-p4/BENCH_metrics.json"
  ledger "$O/batch" "$O/c500-p1" "$O/c2048-p4" "$O/c500-p4" <<'EOF'
batch, *replays = [row(d) for d in sys.argv[1:]]
assert (batch["schema"], batch["mode"]) == ("st-ledger/v2", "repro"), batch
for r in replays:
    assert (r["schema"], r["mode"]) == ("st-ledger/v2", "ingest"), r
    assert r["chunks"] > 0 and r["rows"] > 0, r
    assert r["segments"] > 12, f"kernel scale must seal multiple segments: {r['segments']}"
    assert r["rows_per_s"] > 0.0, r
    assert r["artifact_hash"] == batch["artifact_hash"], "chunked replay diverged from the batch artifact hash"
a, b = replays[0], replays[2]
assert (a["chunk_rows"], a["chunks"]) == (b["chunk_rows"], b["chunks"]), "chunk plan must be parallelism-invariant"
EOF
}

# 200 sessions against a 4-server pool with 35% of sessions dealt a
# fault (DESIGN.md §16), then a breaker campaign at 90%.
mode_chaos() {
  "$BIN/wire-load" --sessions 200 --pool 4 --fault-rate 0.35 --parallelism 16 --out "$O/p16"
  # The second campaign diffs itself against the first inline: drift,
  # plan divergence or full degradation exits nonzero.
  "$BIN/wire-load" --sessions 200 --pool 4 --fault-rate 0.35 --parallelism 6 --out "$O/p6" \
    --baseline "$O/p16/BENCH_load_metrics.json"
  "$BIN/obs-diff" "$O/p16/BENCH_load_metrics.json" "$O/p6/BENCH_load_metrics.json"
  ledger "$O/p16" "$O/p6" <<'EOF'
a, b = row(sys.argv[1]), row(sys.argv[2])
assert a["schema"] == b["schema"] == "st-ledger/v2"
assert a["mode"] == b["mode"] == "wire-load"
assert a["metrics_hash"] == b["metrics_hash"], "campaign fingerprint must be parallelism-invariant"
assert a["parallelism"] == 16 and b["parallelism"] == 6
for r in (a, b):
    classes = (r["sessions_ok"] + r["sessions_retried"] + r["sessions_degraded"]
               + r["sessions_abandoned"] + r["sessions_skipped"])
    assert classes == r["sessions"] == 200, f"every session must land in exactly one class: {r}"
    assert r["unexpected_outcomes"] == 0 and not r["degraded"], r
    faulted = r["sessions_retried"] + r["sessions_degraded"] + r["sessions_abandoned"]
    assert faulted >= 0.30 * r["sessions"], f"fault pressure too low to call this chaos: {faulted}"
EOF
  # Single attempts at 90% faults: hard faults abandon, consecutive
  # abandonments trip the breakers, cooled-down probes re-close them,
  # and the campaign still exits 0.
  "$BIN/wire-load" --sessions 80 --pool 2 --fault-rate 0.9 --attempts 1 \
    --breaker-k 2 --breaker-cooldown 2 --parallelism 8 --out "$O/breaker"
  ledger "$O/breaker" <<'EOF'
r = row(sys.argv[1])
assert r["sessions_abandoned"] > 0, "no abandonments under 90% faults"
assert r["breaker_trips"] > 0, "breakers never tripped"
assert r["sessions_skipped"] > 0, "open breakers never shed load"
assert r["sessions_ok"] > 0, "campaign must still land healthy sessions"
assert r["unexpected_outcomes"] == 0 and not r["degraded"], r
EOF
}

# The live service answers scripted queries from its final epoch, and
# its artifacts and ledger rows match the batch run (DESIGN.md §18).
mode_serve() {
  "$BIN/repro" --scale 0.05 --out "$O/batch" --parallelism 4 --metrics
  boot_serve "$O/live.log" --scale 0.05 --out "$O/live" --parallelism 4 \
    --chunk-rows 500 --wire-sessions 4 --warm --linger 300
  grep -q '"drained":true' "$O/status.json"
  answers epoch '"artifact_hash":"'
  answers headline '"headlines":'
  answers quarantine '"sanitize"'
  answers 'city City-A' '"city":"City-A"'
  # An unknown command is a typed error, not a dropped line.
  expect_exit 1 query '{"cmd":"nope"}' > "$O/err.json"
  grep -q '"ok":false' "$O/err.json"
  # A 10 MiB line with no newline runs past the request-line cap: the
  # connection ends (an error row then EOF, or a reset) within 10 s
  # instead of growing the service, which still answers afterwards.
  python3 - "$ADDR" <<'EOF'
import socket, sys, time
host, port = sys.argv[1].rsplit(":", 1)
start = time.monotonic()
s = socket.create_connection((host, int(port)), timeout=10)
try:
    s.sendall(b"a" * (10 << 20))
    while s.recv(65536):
        pass
except (ConnectionResetError, BrokenPipeError):
    pass
assert time.monotonic() - start < 10, "the oversized line held the connection open"
EOF
  answers status '"ok":true'
  # A shutdown command ends the linger and the service exits 0.
  query shutdown
  wait "$SERVE_PID"
  same_artifacts "$O/batch" "$O/live"

  "$BIN/serve" --scale 0.05 --out "$O/p1" --parallelism 1 --chunk-rows 500 --metrics
  "$BIN/serve" --scale 0.05 --out "$O/p4" --parallelism 4 --chunk-rows 500 --metrics \
    --baseline "$O/p1/BENCH_metrics.json"
  "$BIN/obs-diff" "$O/p1/BENCH_metrics.json" "$O/p4/BENCH_metrics.json"
  ledger "$O/batch" "$O/live" "$O/p1" "$O/p4" <<'EOF'
batch, live, p1, p4 = [row(d) for d in sys.argv[1:]]
for r in (live, p1, p4):
    assert (r["schema"], r["mode"]) == ("st-ledger/v2", "serve"), r
    assert r["artifact_hash"] == batch["artifact_hash"], "service replay diverged from the batch artifact hash"
    assert r["chunks"] > 0 and r["rows"] > 0, r
    assert r["epochs"] > 0, "the final epoch is always published"
    assert r["rows_per_s"] > 0.0, r
# Epoch crossings telescope: the count is parallelism-invariant at a
# fixed chunk plan.
for key in ("epochs", "rows", "chunks", "segments"):
    assert p1[key] == p4[key], (key, p1[key], p4[key])
assert p1["parallelism"] == 1 and p4["parallelism"] == 4
EOF

  # The ledger append is the run's commit point: a run killed
  # mid-stream (kernel scale keeps it streaming) leaves no row, and a
  # restart into the same directory commits exactly one.
  start_serve "$O/kill.log" --scale 0.05 --out "$O/kill" --parallelism 2 --chunk-rows 500
  kill -9 "$SERVE_PID"
  expect_exit 137 wait "$SERVE_PID"
  [ ! -f "$O/kill/BENCH_ledger.jsonl" ] || die "killed run must not reach the ledger"
  "$BIN/serve" --scale 0.05 --out "$O/kill" --parallelism 2 --chunk-rows 500
  [ "$(wc -l < "$O/kill/BENCH_ledger.jsonl")" -eq 1 ]
}

# Headless console frames against live services at parallelism 1 and 4
# (DESIGN.md §19), and the drift panel against ledger baselines.
mode_console() {
  for p in 1 4; do
    boot_serve "$O/serve-p$p.log" --scale 0.05 --out "$O/p$p" --parallelism $p \
      --chunk-rows 500 --linger 300
    "$BIN/console" --connect "$ADDR" --ledger "$O/p$p/BENCH_ledger.jsonl" \
      --headless --frames 3 --interval-ms 100 > "$O/frames-p$p.txt"
    query shutdown
    wait "$SERVE_PID"
  done
  # Every D| line is a pure function of deterministic inputs; the W|
  # pane is where the environment may differ.
  grep '^D|' "$O/frames-p1.txt" > "$O/d-p1.txt"
  grep '^D|' "$O/frames-p4.txt" > "$O/d-p4.txt"
  cmp "$O/d-p1.txt" "$O/d-p4.txt"
  grep -q '^W|' "$O/frames-p1.txt"
  grep -q 'st-console frame 3' "$O/frames-p1.txt"
  if grep '^D|' "$O/frames-p1.txt" | grep -q 'uptime'; then
    die "uptime leaked into the deterministic pane"
  fi

  python3 - "$O" <<'EOF'
import json, sys
o = sys.argv[1]
row = json.loads(open(o + "/p1/BENCH_ledger.jsonl").readline())
row["seed"] += 1
row["artifact_hash"] = "0" * 16
open(o + "/perturbed.jsonl", "w").write(json.dumps(row) + "\n")
EOF
  expect_exit 1 "$BIN/console" --ledger "$O/p1/BENCH_ledger.jsonl" \
    --baseline "$O/perturbed.jsonl" --headless --frames 1 > "$O/drift.txt"
  grep -q 'drift: 2 flag(s)' "$O/drift.txt"
  grep -q '!! seed:' "$O/drift.txt"
  # A p4 run against a p1 baseline is the comparison the ledger exists for.
  "$BIN/console" --ledger "$O/p4/BENCH_ledger.jsonl" --baseline "$O/p1/BENCH_ledger.jsonl" \
    --headless --frames 1 > "$O/clean.txt"
  grep -q 'drift: clean' "$O/clean.txt"

  local bad
  for bad in "--ledger x --frames 0" "--connect" "--ledger x --bogus" ""; do
    # shellcheck disable=SC2086 # word splitting is the point
    expect_exit 2 "$BIN/console" $bad 2> "$O/usage.err"
  done
  "$BIN/console" --help | grep -q 'usage:'
}

# Malformed invocations exit 2 with the usage line; --help exits 0.
mode_usage() {
  local bad
  for bad in "ingest --chunk-rows 0" "ingest --seal-rows 0" \
    "serve --chunk-rows 0" "serve --epoch-rows 0" \
    "repro --scale 0" "repro --parallelism 0" "repro --bogus" \
    "gen-data --bogus" "gen-data --scale 0" "gen-data --format xml"; do
    # shellcheck disable=SC2086 # word splitting is the point
    expect_exit 2 "$BIN/"$bad 2> "$O/usage.err"
    grep -q 'usage:' "$O/usage.err"
  done
  for bin in serve repro gen-data; do
    "$BIN/$bin" --help > /dev/null
  done
}

mode=${1:-}
if [ "$mode" = list ]; then
  printf '%s\n' "${MODES[@]}"
  exit 0
fi
[[ " ${MODES[*]} " == *" $mode "* ]] || die "usage: bash ci/smoke.sh (list | ${MODES[*]})"
cargo build --release -q -p st-bench --bins --offline
O=smoke-out/$mode
rm -rf "$O"
mkdir -p "$O"
# Leave no service behind, whatever fails.
trap 'kill $(jobs -p) 2> /dev/null || true' EXIT
"mode_$mode"
echo "smoke $mode: ok"
