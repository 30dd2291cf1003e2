#!/usr/bin/env bash
# End-to-end test of the real service binaries, registered with CTest
# (tools/CMakeLists.txt): starts a bgls_serve process on a private Unix
# socket, drives it with N concurrent bgls_client processes submitting
# mixed circuits, and checks the acceptance contract:
#   1. final histograms byte-identical to bgls_run on the same
#      inputs/seeds;
#   2. a cancelled job stops within bounded time and reports
#      `cancelled` (client exit code 3);
#   3. a deadline-exceeded job reports `timeout` (exit code 3);
#   4. bgls_run --timeout-ms itself exits 3;
#   5. admission/stats/shutdown endpoints work;
#   6. the {"op":"metrics"} endpoint serves Prometheus exposition with
#      scheduler/engine/kernel/daemon series, monotonic across scrapes
#      (skipped when the build compiled telemetry out);
#   7. crash recovery: a daemon with --journal is kill -9'd mid-flood
#      (with torn journal writes injected via BGLS_FAULT_INJECT), a
#      fresh daemon replays the same journal, resumes the incomplete
#      job from its checkpoint, and every job's final report is still
#      byte-identical to bgls_run; journal/resume telemetry is scraped.
#
#   8. fleet serving (when a BGLS_FLEET binary is passed): two workers
#      with result caches behind one bgls_fleet front; concurrent
#      multi-tenant clients byte-identical to bgls_run; a repeat
#      submission answered from a worker's cache byte-identically; a
#      worker kill -9'd mid-flood (the fleet keeps serving on the
#      survivor) and brought back in, rejoining via health checks.
#
#   9. distributed tracing (fleet builds with telemetry): a job
#      submitted through the fleet with a fixed --trace-id yields a
#      single merged span tree (fleet.place/fleet.proxy -> worker
#      queue/run -> engine sample/shard) from the trace op, exported
#      as valid Chrome trace-event JSON; the workers' --slow-ms 1
#      warn-logs carry that trace id (logs op + --log-file ndjson);
#      the fleet metrics op aggregates worker scrapes under worker="N"
#      labels.
#
# Usage: service_e2e.sh BGLS_SERVE BGLS_CLIENT BGLS_RUN DATA_DIR WORK_DIR
#        [BGLS_FLEET]

set -u

SERVE="$1"; CLIENT="$2"; RUN="$3"; DATA="$4"; WORK="$5"; FLEET="${6:-}"

SOCK="/tmp/bgls_e2e_$$.sock"
CONNECT="unix:$SOCK"
mkdir -p "$WORK"
SERVE_PID=""
JSERVE_PID=""
W1_PID=""
W2_PID=""
FLEET_PID=""

fail() {
  echo "FAIL: $*" >&2
  [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null
  [ -n "$JSERVE_PID" ] && kill "$JSERVE_PID" 2>/dev/null
  [ -n "$W1_PID" ] && kill "$W1_PID" 2>/dev/null
  [ -n "$W2_PID" ] && kill "$W2_PID" 2>/dev/null
  [ -n "$FLEET_PID" ] && kill "$FLEET_PID" 2>/dev/null
  exit 1
}

cleanup() {
  [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null
  [ -n "$JSERVE_PID" ] && kill "$JSERVE_PID" 2>/dev/null
  [ -n "$W1_PID" ] && kill "$W1_PID" 2>/dev/null
  [ -n "$W2_PID" ] && kill "$W2_PID" 2>/dev/null
  [ -n "$FLEET_PID" ] && kill "$FLEET_PID" 2>/dev/null
  rm -f "$SOCK" "/tmp/bgls_e2e_j$$.sock" \
    "/tmp/bgls_e2e_w1_$$.sock" "/tmp/bgls_e2e_w2_$$.sock" \
    "/tmp/bgls_e2e_front_$$.sock"
}
trap cleanup EXIT

wait_socket() {
  for _ in $(seq 100); do
    [ -S "$1" ] && return 0
    sleep 0.1
  done
  return 1
}

"$SERVE" --listen "$CONNECT" --jobs 2 --queue 32 &
SERVE_PID=$!

# Wait for the socket to appear.
for _ in $(seq 100); do
  [ -S "$SOCK" ] && break
  sleep 0.1
done
[ -S "$SOCK" ] || fail "daemon socket never appeared"

# --- 1. N concurrent clients, mixed circuits, byte-identical output ---
declare -a SPECS=(
  "ghz.qasm 4096 7"
  "ghz.qasm 2048 11"
  "x0.qasm 512 3"
  "ghz.qasm 1000 5"
)
CLIENT_PIDS=()
for i in "${!SPECS[@]}"; do
  read -r QASM REPS SEED <<< "${SPECS[$i]}"
  "$RUN" --reps "$REPS" --seed "$SEED" --out "$WORK/expected_$i.json" \
    "$DATA/$QASM" || fail "bgls_run on $QASM failed"
  "$CLIENT" --connect "$CONNECT" run --reps "$REPS" --seed "$SEED" \
    "$DATA/$QASM" > "$WORK/daemon_$i.json" &
  CLIENT_PIDS+=($!)
done
for pid in "${CLIENT_PIDS[@]}"; do
  wait "$pid" || fail "concurrent client exited non-zero"
done
for i in "${!SPECS[@]}"; do
  cmp "$WORK/daemon_$i.json" "$WORK/expected_$i.json" \
    || fail "daemon output $i differs from bgls_run"
done
echo "ok: ${#SPECS[@]} concurrent clients byte-identical to bgls_run"

# --- 1b. Engine-path job: 12 qubits (big enough for the timed kernel
# histograms) on --threads 2, forced onto the statevector backend (GHZ
# is pure Clifford, so auto-selection would route it to the stabilizer
# backend and never touch the statevector kernels), so the engine and
# kernel telemetry series scraped in section 6 are populated ---
{
  echo 'OPENQASM 2.0;'
  echo 'include "qelib1.inc";'
  echo 'qreg q[12];'
  echo 'creg c[12];'
  echo 'h q[0];'
  for q in $(seq 1 11); do echo "cx q[0],q[$q];"; done
  echo 'measure q -> c;'
} > "$WORK/ghz12.qasm"
"$CLIENT" --connect "$CONNECT" run --reps 256 --seed 9 --threads 2 \
  --backend sv "$WORK/ghz12.qasm" > /dev/null \
  || fail "engine-path job failed"
echo "ok: engine-path job (12 qubits, 2 threads) completed"

# --- 2. Cancellation: bounded stop, state `cancelled`, exit code 3 ---
JOB=$("$CLIENT" --connect "$CONNECT" submit --reps 500000000 --no-batch \
  "$DATA/ghz.qasm") || fail "submit failed"
sleep 0.3
# Mid-flood scrape: the blocker job is running right now.
"$CLIENT" --connect "$CONNECT" metrics > "$WORK/metrics_mid.txt" \
  || fail "mid-flood metrics scrape failed"
"$CLIENT" --connect "$CONNECT" cancel "$JOB" | grep -q "^cancelled" \
  || fail "cancel was not accepted"
START=$(date +%s)
"$CLIENT" --connect "$CONNECT" wait "$JOB" > /dev/null 2> "$WORK/cancel.err"
RC=$?
ELAPSED=$(( $(date +%s) - START ))
[ "$RC" -eq 3 ] || fail "cancelled wait exited $RC, want 3"
grep -q "cancelled" "$WORK/cancel.err" || fail "missing cancelled code"
[ "$ELAPSED" -le 30 ] || fail "cancellation took ${ELAPSED}s (unbounded?)"
echo "ok: cancelled job stopped in ${ELAPSED}s with exit 3"

# --- 3. Deadline: state `timeout`, exit code 3 ---
JOB=$("$CLIENT" --connect "$CONNECT" submit --reps 500000000 --no-batch \
  --deadline-ms 300 "$DATA/ghz.qasm") || fail "submit failed"
"$CLIENT" --connect "$CONNECT" wait "$JOB" > /dev/null 2> "$WORK/timeout.err"
RC=$?
[ "$RC" -eq 3 ] || fail "timed-out wait exited $RC, want 3"
grep -q "timeout" "$WORK/timeout.err" || fail "missing timeout code"
echo "ok: deadline-exceeded job reported timeout with exit 3"

# --- 4. bgls_run --timeout-ms shares the cancellation path ---
"$RUN" --reps 500000000 --no-batch --timeout-ms 300 \
  --out /dev/null "$DATA/ghz.qasm" 2> /dev/null
RC=$?
[ "$RC" -eq 3 ] || fail "bgls_run --timeout-ms exited $RC, want 3"
echo "ok: bgls_run --timeout-ms exits 3"

# --- 5. Streaming progress frames arrive before the final report ---
"$CLIENT" --connect "$CONNECT" run --reps 60000 --no-batch --seed 13 \
  --progress-every 20000 "$DATA/ghz.qasm" \
  > "$WORK/streamed.json" 2> "$WORK/progress.err" \
  || fail "streaming run failed"
PROGRESS_LINES=$(grep -c "^progress:" "$WORK/progress.err")
[ "$PROGRESS_LINES" -ge 3 ] || fail "expected >=3 progress lines, got $PROGRESS_LINES"
echo "ok: streaming emitted $PROGRESS_LINES progress frames"

# --- 6. Metrics exposition: core series present and monotonic ---
"$CLIENT" --connect "$CONNECT" metrics > "$WORK/metrics_end.txt" \
  || fail "metrics scrape failed"
if grep -q "telemetry compiled out" "$WORK/metrics_end.txt"; then
  echo "ok: telemetry compiled out; skipping metrics assertions"
else
  # Counter/gauge series land verbatim; histograms via their _count.
  for series in \
    'bgls_scheduler_submitted_total' \
    'bgls_scheduler_queue_depth' \
    'bgls_scheduler_running' \
    'bgls_scheduler_queue_wait_seconds_count' \
    'bgls_scheduler_run_seconds_count' \
    'bgls_scheduler_cancel_latency_seconds_count' \
    'bgls_scheduler_jobs_total{state="done"}' \
    'bgls_scheduler_jobs_total{state="cancelled"}' \
    'bgls_engine_runs_total' \
    'bgls_engine_shards_total' \
    'bgls_engine_shard_seconds_count' \
    'bgls_pool_tasks_total' \
    'bgls_pool_active_workers' \
    'bgls_kernel_apply_total{class="dense"}' \
    'bgls_kernel_apply_seconds_count{class="dense"}' \
    'bgls_daemon_requests_total{op="submit"}' \
    'bgls_daemon_requests_total{op="metrics"}' \
    'bgls_daemon_request_seconds_count' \
    'bgls_daemon_connections_total'; do
    grep -q "^$series " "$WORK/metrics_end.txt" \
      || fail "metrics missing series $series"
  done
  series_value() { awk -v s="$2" '$1 == s {print $2}' "$1"; }
  MID_DONE=$(series_value "$WORK/metrics_mid.txt" \
    'bgls_scheduler_jobs_total{state="done"}')
  END_DONE=$(series_value "$WORK/metrics_end.txt" \
    'bgls_scheduler_jobs_total{state="done"}')
  [ -n "$MID_DONE" ] && [ -n "$END_DONE" ] \
    || fail "could not read jobs_total{state=done} from the scrapes"
  [ "$MID_DONE" -ge 5 ] || fail "mid-flood done=$MID_DONE, want >=5"
  [ "$END_DONE" -ge "$MID_DONE" ] \
    || fail "done went backwards: $MID_DONE -> $END_DONE"
  MID_SUBMIT=$(series_value "$WORK/metrics_mid.txt" \
    'bgls_daemon_requests_total{op="submit"}')
  END_SUBMIT=$(series_value "$WORK/metrics_end.txt" \
    'bgls_daemon_requests_total{op="submit"}')
  [ "$END_SUBMIT" -ge "$MID_SUBMIT" ] \
    || fail "submit requests went backwards: $MID_SUBMIT -> $END_SUBMIT"
  APPLIES=$(series_value "$WORK/metrics_end.txt" \
    'bgls_kernel_apply_seconds_count{class="dense"}')
  [ "$APPLIES" -gt 0 ] \
    || fail "no timed dense kernel applies despite the 12-qubit job"
  echo "ok: metrics exposition has core series, monotonic ($MID_DONE -> $END_DONE done)"
fi

# --- 7. Stats + shutdown ---
"$CLIENT" --connect "$CONNECT" stats > "$WORK/stats.txt" \
  || fail "stats failed"
grep -q "cancelled=1" "$WORK/stats.txt" || fail "stats missing cancelled=1"
grep -q "timed_out=1" "$WORK/stats.txt" || fail "stats missing timed_out=1"
"$CLIENT" --connect "$CONNECT" shutdown > /dev/null || fail "shutdown failed"
wait "$SERVE_PID" || fail "daemon exited non-zero"
SERVE_PID=""
echo "ok: stats consistent, daemon drained cleanly"

# --- 8. Crash recovery: kill -9 mid-flood, restart on the same journal ---
JSOCK="/tmp/bgls_e2e_j$$.sock"
JCONNECT="unix:$JSOCK"
JOURNAL="$WORK/journal.ndjson"
# Torn journal appends injected at 2% probability: submits see retryable
# journal_error responses (the clients' --retries absorbs them) and the
# replay below must skip the torn lines.
BGLS_FAULT_INJECT="journal_write:0.02:42" \
  "$SERVE" --listen "$JCONNECT" --jobs 2 --journal "$JOURNAL" \
  --checkpoint-every 100000 --retries 3 --backoff-ms 10 &
JSERVE_PID=$!
for _ in $(seq 100); do
  [ -S "$JSOCK" ] && break
  sleep 0.1
done
[ -S "$JSOCK" ] || fail "journaled daemon socket never appeared"

# Short jobs that finish before the kill (answered from the journal
# after the restart) ...
JOB_IDS=()
for i in "${!SPECS[@]}"; do
  read -r QASM REPS SEED <<< "${SPECS[$i]}"
  ID=$("$CLIENT" --connect "$JCONNECT" --retries 5 --backoff-ms 50 \
    submit --reps "$REPS" --seed "$SEED" "$DATA/$QASM") \
    || fail "journaled submit $i failed"
  JOB_IDS+=("$ID")
done
for ID in "${JOB_IDS[@]}"; do
  "$CLIENT" --connect "$JCONNECT" --retries 5 --backoff-ms 50 \
    wait "$ID" > /dev/null || fail "journaled wait $ID failed"
done
# ... and one long job the kill lands in the middle of (~2-3s of work,
# well past several checkpoint boundaries).
"$RUN" --reps 3000000 --no-batch --seed 23 --out "$WORK/expected_long.json" \
  "$DATA/ghz.qasm" || fail "bgls_run for the long job failed"
LONG_ID=$("$CLIENT" --connect "$JCONNECT" --retries 5 --backoff-ms 50 \
  submit --reps 3000000 --no-batch --seed 23 "$DATA/ghz.qasm") \
  || fail "long submit failed"
# Kill only after the *long job* has journaled a checkpoint, so the
# restart genuinely resumes instead of rerunning from scratch. A fixed
# sleep is wrong twice: sanitizer builds may not reach the first
# checkpoint boundary in time, fast builds may finish the job outright.
# The match must be specific twice over: batched short jobs journal
# initial/final checkpoints immediately (any-checkpoint matching kills
# before the long job has one), and a torn append (fault injection or
# the kill itself) can grep-match yet fail CRC at replay — so require
# the long job's id and the closing braces of a complete frame.
CKPT_RE='"type":"checkpoint","job":'"$LONG_ID"',"data".*\}\}\}$'
for _ in $(seq 300); do
  grep -Eq "$CKPT_RE" "$JOURNAL" 2>/dev/null && break
  sleep 0.1
done
grep -Eq "$CKPT_RE" "$JOURNAL" \
  || fail "long job never journaled a checkpoint"

kill -9 "$JSERVE_PID" 2>/dev/null
wait "$JSERVE_PID" 2>/dev/null
echo "ok: journaled daemon killed -9 mid-job (journal: $(wc -l < "$JOURNAL") lines)"

# Restart on the same journal and socket: replay answers the finished
# jobs from the log and re-enqueues the long job from its checkpoint.
"$SERVE" --listen "$JCONNECT" --jobs 2 --journal "$JOURNAL" \
  --checkpoint-every 100000 --retries 3 --backoff-ms 10 &
JSERVE_PID=$!
for _ in $(seq 100); do
  [ -S "$JSOCK" ] && break
  sleep 0.1
done
[ -S "$JSOCK" ] || fail "restarted daemon socket never appeared"

for i in "${!SPECS[@]}"; do
  "$CLIENT" --connect "$JCONNECT" --retries 5 --backoff-ms 50 \
    result "${JOB_IDS[$i]}" > "$WORK/replayed_$i.json" \
    || fail "replayed result ${JOB_IDS[$i]} failed"
  cmp "$WORK/replayed_$i.json" "$WORK/expected_$i.json" \
    || fail "replayed job $i differs from bgls_run"
done
"$CLIENT" --connect "$JCONNECT" --retries 5 --backoff-ms 50 \
  wait "$LONG_ID" > "$WORK/resumed_long.json" \
  || fail "resumed long job failed"
cmp "$WORK/resumed_long.json" "$WORK/expected_long.json" \
  || fail "resumed long job differs from bgls_run"
echo "ok: ${#SPECS[@]} journal-replayed + 1 checkpoint-resumed job byte-identical"

"$CLIENT" --connect "$JCONNECT" metrics > "$WORK/metrics_journal.txt" \
  || fail "journal metrics scrape failed"
if ! grep -q "telemetry compiled out" "$WORK/metrics_journal.txt"; then
  for series in \
    'bgls_journal_records_total' \
    'bgls_journal_replay_seconds_count' \
    'bgls_jobs_resumed_total' \
    'bgls_jobs_retried_total' \
    'bgls_scheduler_preempted_total'; do
    grep -q "^$series " "$WORK/metrics_journal.txt" \
      || fail "metrics missing series $series"
  done
  series_value() { awk -v s="$2" '$1 == s {print $2}' "$1"; }
  RECORDS=$(series_value "$WORK/metrics_journal.txt" \
    'bgls_journal_records_total')
  [ "${RECORDS%.*}" -gt 0 ] || fail "journal_records_total=$RECORDS, want >0"
  REPLAYS=$(series_value "$WORK/metrics_journal.txt" \
    'bgls_journal_replay_seconds_count')
  [ "${REPLAYS%.*}" -ge 1 ] || fail "replay count=$REPLAYS, want >=1"
  RESUMED=$(series_value "$WORK/metrics_journal.txt" \
    'bgls_jobs_resumed_total')
  [ "${RESUMED%.*}" -ge 1 ] || fail "jobs_resumed_total=$RESUMED, want >=1"
  echo "ok: journal telemetry ($RECORDS records, $RESUMED resumed)"
fi

"$CLIENT" --connect "$JCONNECT" shutdown > /dev/null \
  || fail "journaled daemon shutdown failed"
wait "$JSERVE_PID" || fail "journaled daemon exited non-zero"
JSERVE_PID=""
rm -f "$JSOCK"

# --- 9. Fleet: 2 cached workers behind one front, multi-tenant flood,
# cache-hit byte-identity, worker failure + rejoin ---
if [ -n "$FLEET" ]; then
  W1SOCK="/tmp/bgls_e2e_w1_$$.sock"
  W2SOCK="/tmp/bgls_e2e_w2_$$.sock"
  FSOCK="/tmp/bgls_e2e_front_$$.sock"
  FCONNECT="unix:$FSOCK"

  # --slow-ms 1 + --log-file: every non-trivial request warn-logs a
  # "slow request" ndjson line tagged with the job's trace id, which
  # section 9 asserts; --log-file appends, so worker 2's restart keeps
  # writing to the same file.
  start_worker1() {
    "$SERVE" --listen "unix:$W1SOCK" --jobs 2 --cache 64 \
      --tenant 'acme=2' --tenant 'blue=1' \
      --slow-ms 1 --log-file "$WORK/worker1.log" &
    W1_PID=$!
    wait_socket "$W1SOCK" || fail "worker 1 socket never appeared"
  }
  start_worker2() {
    "$SERVE" --listen "unix:$W2SOCK" --jobs 2 --cache 64 \
      --tenant 'acme=2' --tenant 'blue=1' \
      --slow-ms 1 --log-file "$WORK/worker2.log" &
    W2_PID=$!
    wait_socket "$W2SOCK" || fail "worker 2 socket never appeared"
  }
  start_worker1
  start_worker2
  "$FLEET" --listen "$FCONNECT" --worker "unix:$W1SOCK" \
    --worker "unix:$W2SOCK" --health-interval-ms 100 \
    --slow-ms 1 --log-file "$WORK/fleet.log" &
  FLEET_PID=$!
  wait_socket "$FSOCK" || fail "fleet socket never appeared"

  # Concurrent multi-tenant clients through the fleet: placement is
  # invisible because sampling is deterministic — every worker returns
  # the byte-identical bgls_run report.
  TENANTS=(acme blue acme blue)
  FLEET_PIDS=()
  for i in "${!SPECS[@]}"; do
    read -r QASM REPS SEED <<< "${SPECS[$i]}"
    "$CLIENT" --connect "$FCONNECT" run --reps "$REPS" --seed "$SEED" \
      --tenant "${TENANTS[$i]}" "$DATA/$QASM" > "$WORK/fleet_$i.json" &
    FLEET_PIDS+=($!)
  done
  for pid in "${FLEET_PIDS[@]}"; do
    wait "$pid" || fail "fleet client exited non-zero"
  done
  for i in "${!SPECS[@]}"; do
    cmp "$WORK/fleet_$i.json" "$WORK/expected_$i.json" \
      || fail "fleet output $i differs from bgls_run"
  done
  echo "ok: ${#SPECS[@]} multi-tenant fleet clients byte-identical to bgls_run"

  # Cache-hit byte-identity, pinned against a single worker: the repeat
  # submission must be answered from the result cache (cache_hits
  # advances) and the report must be byte-identical without re-sampling.
  "$CLIENT" --connect "unix:$W1SOCK" run --reps 4096 --seed 7 \
    "$DATA/ghz.qasm" > "$WORK/cache_first.json" || fail "cache prime failed"
  "$CLIENT" --connect "unix:$W1SOCK" run --reps 4096 --seed 7 \
    "$DATA/ghz.qasm" > "$WORK/cache_second.json" || fail "cache hit failed"
  cmp "$WORK/cache_first.json" "$WORK/cache_second.json" \
    || fail "cache hit not byte-identical"
  cmp "$WORK/cache_first.json" "$WORK/expected_0.json" \
    || fail "cached report differs from bgls_run"
  "$CLIENT" --connect "unix:$W1SOCK" stats > "$WORK/cache_stats.txt" \
    || fail "worker stats failed"
  grep -Eq "cache_hits=[1-9]" "$WORK/cache_stats.txt" \
    || fail "worker reported no cache hits: $(cat "$WORK/cache_stats.txt")"
  echo "ok: repeat submission answered from the cache byte-identically"

  # The fleet op reports both workers; drain/undrain round-trips.
  "$CLIENT" --connect "$FCONNECT" raw '{"op":"fleet"}' > "$WORK/fleet_op.json"
  grep -q '"workers"' "$WORK/fleet_op.json" || fail "fleet op malformed"
  "$CLIENT" --connect "$FCONNECT" raw '{"op":"drain","worker":1}' \
    | grep -q '"ok":true' || fail "drain rejected"
  "$CLIENT" --connect "$FCONNECT" raw '{"op":"undrain","worker":1}' \
    | grep -q '"ok":true' || fail "undrain rejected"

  # Kill worker 2 mid-flood: the fleet must keep serving on worker 1.
  kill -9 "$W2_PID" 2>/dev/null
  wait "$W2_PID" 2>/dev/null
  W2_PID=""
  SURVIVOR_PIDS=()
  for i in "${!SPECS[@]}"; do
    read -r QASM REPS SEED <<< "${SPECS[$i]}"
    "$CLIENT" --connect "$FCONNECT" --retries 5 --backoff-ms 50 \
      run --reps "$REPS" --seed "$SEED" --tenant "${TENANTS[$i]}" \
      "$DATA/$QASM" > "$WORK/survivor_$i.json" &
    SURVIVOR_PIDS+=($!)
  done
  for pid in "${SURVIVOR_PIDS[@]}"; do
    wait "$pid" || fail "client failed while a worker was down"
  done
  for i in "${!SPECS[@]}"; do
    cmp "$WORK/survivor_$i.json" "$WORK/expected_$i.json" \
      || fail "survivor output $i differs from bgls_run"
  done
  echo "ok: fleet served ${#SPECS[@]} jobs byte-identically with a worker down"

  # Bring worker 2 back on the same socket: the health thread must mark
  # it alive again and the fleet keeps answering.
  rm -f "$W2SOCK"
  start_worker2
  REJOINED=0
  for _ in $(seq 50); do
    "$CLIENT" --connect "$FCONNECT" raw '{"op":"fleet"}' \
      > "$WORK/fleet_rejoin.json" 2>/dev/null
    if grep -q '"alive":true.*"alive":true' "$WORK/fleet_rejoin.json"; then
      REJOINED=1
      break
    fi
    sleep 0.1
  done
  [ "$REJOINED" -eq 1 ] || fail "worker 2 never rejoined after restart"
  "$CLIENT" --connect "$FCONNECT" run --reps 512 --seed 3 \
    --tenant blue "$DATA/x0.qasm" > "$WORK/rejoin_run.json" \
    || fail "post-rejoin run failed"
  cmp "$WORK/rejoin_run.json" "$WORK/expected_2.json" \
    || fail "post-rejoin output differs from bgls_run"
  echo "ok: killed worker rejoined via health checks"

  # --- 9. Distributed tracing: fixed trace id through the fleet ---
  "$CLIENT" --connect "$FCONNECT" metrics > "$WORK/fleet_metrics.txt" \
    || fail "fleet metrics scrape failed"
  if grep -q "telemetry compiled out" "$WORK/fleet_metrics.txt"; then
    echo "ok: telemetry compiled out; skipping tracing assertions"
  else
    # The fleet metrics op merges each live worker's scrape under a
    # worker="N" label, after the fleet's own (unlabeled) series.
    grep -q 'worker="0"' "$WORK/fleet_metrics.txt" \
      || fail 'fleet metrics missing worker="0" series'
    grep -q 'worker="1"' "$WORK/fleet_metrics.txt" \
      || fail 'fleet metrics missing worker="1" series'
    grep -q '^bgls_fleet_' "$WORK/fleet_metrics.txt" \
      || fail "fleet metrics missing the front's own series"
    # The front runs the same line server as the daemon, with the same
    # per-op request series under its own prefix.
    grep -q '^bgls_fleet_requests_total{op="submit"} ' \
      "$WORK/fleet_metrics.txt" \
      || fail 'fleet metrics missing bgls_fleet_requests_total{op="submit"}'

    TRACE_ID=424242
    # The batched GHZ job runs as the engine's one dictionary shard, so
    # the tree reaches the shard span and its evolve child; reps sized
    # so the job takes real wall time and the blocking wait — on the
    # worker and on the fleet proxying it — crosses the --slow-ms 1
    # threshold (batched sampling clears ~200k reps in under a
    # millisecond).
    TJOB=$("$CLIENT" --connect "$FCONNECT" submit --reps 20000000 --seed 7 \
      --threads 2 --trace-id "$TRACE_ID" "$DATA/ghz.qasm") \
      || fail "traced submit failed"
    "$CLIENT" --connect "$FCONNECT" wait "$TJOB" > /dev/null \
      || fail "traced wait failed"

    # One merged span tree, stitched fleet -> worker -> engine, plus
    # the Chrome trace-event export.
    "$CLIENT" --connect "$FCONNECT" trace "$TJOB" \
      --chrome-trace "$WORK/trace_chrome.json" > "$WORK/trace_tree.txt" \
      || fail "trace op failed"
    for span in 'fleet.place (' 'fleet.proxy (' 'queue (' 'run (' \
                'sample (' 'shard (' 'evolve ('; do
      grep -q -- "- $span" "$WORK/trace_tree.txt" \
        || fail "trace tree missing span '$span': $(cat "$WORK/trace_tree.txt")"
    done
    python3 - "$WORK/trace_chrome.json" <<'PY' \
      || fail "chrome trace export is not valid"
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
assert events, "no trace events"
names = {e["name"] for e in events}
assert "fleet.place" in names and "run" in names, sorted(names)
assert all(e["ph"] == "X" and "dur" in e for e in events)
PY
    echo "ok: merged trace tree + Chrome export for trace_id=$TRACE_ID"

    # The slow-request warn lines carry the propagated trace id, both
    # over the logs op (ring tail) and in the --log-file ndjson.
    : > "$WORK/traced_logs.txt"
    for LSOCK in "$FCONNECT" "unix:$W1SOCK" "unix:$W2SOCK"; do
      "$CLIENT" --connect "$LSOCK" logs --level warn \
        --trace-id "$TRACE_ID" >> "$WORK/traced_logs.txt" \
        || fail "logs op failed on $LSOCK"
    done
    grep -q "slow request" "$WORK/traced_logs.txt" \
      || fail "no slow-request log line carries trace_id=$TRACE_ID"
    grep -h "\"trace_id\":$TRACE_ID" \
      "$WORK/fleet.log" "$WORK/worker1.log" "$WORK/worker2.log" \
      2>/dev/null | grep -q "slow request" \
      || fail "--log-file ndjson missing the traced slow-request line"
    echo "ok: slow-request logs tagged with trace_id=$TRACE_ID"
  fi

  "$CLIENT" --connect "$FCONNECT" shutdown > /dev/null \
    || fail "fleet shutdown failed"
  wait "$FLEET_PID" || fail "fleet exited non-zero"
  FLEET_PID=""
  # Workers have their own lifecycles: still alive after fleet shutdown.
  kill -0 "$W1_PID" 2>/dev/null || fail "fleet shutdown killed worker 1"
  "$CLIENT" --connect "unix:$W1SOCK" shutdown > /dev/null \
    || fail "worker 1 shutdown failed"
  wait "$W1_PID" || fail "worker 1 exited non-zero"
  W1_PID=""
  "$CLIENT" --connect "unix:$W2SOCK" shutdown > /dev/null \
    || fail "worker 2 shutdown failed"
  wait "$W2_PID" || fail "worker 2 exited non-zero"
  W2_PID=""
  echo "ok: fleet front drained; workers outlived it"
fi

echo "PASS: service end-to-end"
exit 0
