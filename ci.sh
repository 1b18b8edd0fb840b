#!/bin/sh
# Per-PR smoke: build, full test suite, the parallel fleet path
# end-to-end (scaling experiment at reduced workload sizes), the online
# runtime bench, and a real TCP serve/client loopback round trip. Run
# from the repository root.
set -eu

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

DTSCHED=./_build/default/bin/dtsched.exe

echo "== serve/client loopback smoke =="
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

"$DTSCHED" serve -p 0 --port-file "$tmp/port" >"$tmp/server.log" 2>&1 &
server_pid=$!
i=0
while [ ! -s "$tmp/port" ]; do
  i=$((i + 1))
  if [ "$i" -gt 100 ]; then
    echo "FAIL: server did not write its port file" >&2
    kill "$server_pid" 2>/dev/null || true
    exit 1
  fi
  sleep 0.1
done
port=$(cat "$tmp/port")
echo "server listening on port $port"

# Head-of-line regression: hold an idle connection open for the whole
# 20-task session below. The server runs without a pool, so before the
# multiplexed event loop this idle client would have frozen the accept
# loop and the session would never have been served.
sleep 60 | "$DTSCHED" client -p "$port" >/dev/null 2>&1 &
idle_pid=$!
sleep 0.3

# Scripted session: 20 identical tasks (comm 1, comp 0.5, mem 1) on
# capacity 10, all arrivals at 0. The link serialises the transfers, so
# the clairvoyant (= offline, by the engine's degeneration property)
# makespan is 20 + 0.5 = 20.5 exactly. A second DRAIN, with nothing
# pending, must give the same answer.
{
  echo "INIT 10 OOSCMR"
  i=0
  while [ "$i" -lt 20 ]; do
    echo "SUBMIT t$i 1 0.5 1"
    i=$((i + 1))
  done
  echo "STATS"
  echo "DRAIN"
  echo "DRAIN"
  echo "QUIT"
} | "$DTSCHED" client -p "$port" >"$tmp/session.out"
[ "$(grep -c "makespan=20.5 scheduled=20" "$tmp/session.out")" -eq 2 ] || {
  echo "FAIL: the two DRAINs of the 20-task session did not both read the offline makespan 20.5:" >&2
  cat "$tmp/session.out" >&2
  exit 1
}
echo "20-task session OK (both DRAINs read makespan 20.5 = offline, idle connection held open)"
kill "$idle_pid" 2>/dev/null || true

# Trace replay at rate inf: every arrival is 0, so the online schedule
# must equal the offline clairvoyant one bit for bit (ratio 1.000).
"$DTSCHED" gen -k hf -n 1 -o "$tmp/traces" >/dev/null
"$DTSCHED" client -p "$port" -t "$tmp/traces/hf-p000.trace" -r inf \
  >"$tmp/replay.out"
cat "$tmp/replay.out"
grep -q "online/offline   1.000" "$tmp/replay.out" || {
  echo "FAIL: rate-inf replay diverged from the offline schedule" >&2
  exit 1
}

# SHUTDOWN while a client is still connected: the server must drain and
# exit instead of waiting on the open connection forever.
sleep 60 | "$DTSCHED" client -p "$port" >/dev/null 2>&1 &
idle2_pid=$!
sleep 0.3
printf 'SHUTDOWN\n' | "$DTSCHED" client -p "$port" >/dev/null
i=0
while kill -0 "$server_pid" 2>/dev/null; do
  i=$((i + 1))
  if [ "$i" -gt 100 ]; then
    echo "FAIL: server still running 10s after SHUTDOWN with a client open" >&2
    kill "$server_pid" 2>/dev/null || true
    exit 1
  fi
  sleep 0.1
done
wait "$server_pid" 2>/dev/null || true
kill "$idle2_pid" 2>/dev/null || true
echo "server shut down cleanly with a client still connected"

echo "== malformed trace smoke =="
# A malformed trace is an input error: the commands that read traces
# print Trace.load's located message on stderr and exit 1, instead of
# dying on an uncaught exception (exit 125).
mkdir "$tmp/bad"
printf '# dtsched-trace v1 hf-p000\n0\tq0\t1\t2\t16\n1\tq1\tabc\t2\t16\n' \
  >"$tmp/bad/hf-p000.trace"
for cmd in "run -t $tmp/bad/hf-p000.trace" "fleet -d $tmp/bad -p hf"; do
  status=0
  # shellcheck disable=SC2086
  "$DTSCHED" $cmd >/dev/null 2>"$tmp/bad.err" || status=$?
  if [ "$status" -ne 1 ] || ! grep -q 'hf-p000.trace: line 3: comm: not a number' "$tmp/bad.err"; then
    echo "FAIL: dtsched $cmd on a malformed trace exited $status:" >&2
    cat "$tmp/bad.err" >&2
    exit 1
  fi
done
# A trace path that cannot be read (here a directory) is an input error
# too: exit 1 with the path in the message.
mkdir -p "$tmp/dirset/hf-p000.trace"
for item in "run -t $tmp/bad|$tmp/bad" "fleet -d $tmp/dirset -p hf|$tmp/dirset/hf-p000.trace"; do
  cmd=${item%|*}
  path=${item#*|}
  status=0
  # shellcheck disable=SC2086
  "$DTSCHED" $cmd >/dev/null 2>"$tmp/bad.err" || status=$?
  if [ "$status" -ne 1 ] || ! grep -qF "Trace.load: $path: Is a directory" "$tmp/bad.err"; then
    echo "FAIL: dtsched $cmd on a directory exited $status:" >&2
    cat "$tmp/bad.err" >&2
    exit 1
  fi
done
echo "malformed trace OK: run -t and fleet -d exit 1 with the located message, directories too"

echo "== fd-exhaustion smoke =="
# Out of fds, accept fails with EMFILE while the pending connection
# keeps the listener readable: a server that keeps polling the listener
# then spins a core for as long as the fds stay exhausted. A server
# limited to 32 fds holds 40 idle clients (the surplus waits in the
# listen backlog); its CPU time over 2 s must stay under half a core,
# and once 20 clients close, a STATS probe must be answered within 5 s.
if [ ! -r /proc/self/stat ]; then
  echo "NOTICE: /proc is absent; fd-exhaustion smoke skipped"
else
  (ulimit -n 32; exec "$DTSCHED" serve -p 0 --port-file "$tmp/port-fds") \
    >"$tmp/server-fds.log" 2>&1 &
  fds_pid=$!
  i=0
  while [ ! -s "$tmp/port-fds" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
      echo "FAIL: fd-limited server did not write its port file" >&2
      kill "$fds_pid" 2>/dev/null || true
      exit 1
    fi
    sleep 0.1
  done
  fds_port=$(cat "$tmp/port-fds")
  clients=""
  i=0
  while [ "$i" -lt 40 ]; do
    sleep 30 | "$DTSCHED" client -p "$fds_port" >/dev/null 2>&1 &
    clients="$clients $!"
    i=$((i + 1))
  done
  sleep 1
  # utime + stime, in clock ticks (fields 14 and 15)
  cpu_ticks() { awk '{ print $14 + $15 }' "/proc/$fds_pid/stat"; }
  t0=$(cpu_ticks)
  sleep 2
  t1=$(cpu_ticks)
  fds_cpu=$(awk -v a="$t0" -v b="$t1" -v hz="$(getconf CLK_TCK)" \
    'BEGIN { printf "%.2f", (b - a) / hz / 2 }')
  stop_fds() {
    # shellcheck disable=SC2086
    kill $clients "$fds_pid" 2>/dev/null || true
    wait "$fds_pid" 2>/dev/null || true
  }
  if awk -v c="$fds_cpu" 'BEGIN { exit !(c > 0.5) }'; then
    echo "FAIL: server out of fds used ${fds_cpu} of a core while idle" >&2
    stop_fds
    exit 1
  fi
  n=0
  for pid in $clients; do
    [ "$n" -lt 20 ] || break
    kill "$pid" 2>/dev/null || true
    n=$((n + 1))
  done
  printf 'STATS\n' | "$DTSCHED" client -p "$fds_port" >"$tmp/probe-fds.out" 2>&1 &
  probe_pid=$!
  i=0
  while ! grep -q '^OK' "$tmp/probe-fds.out"; do
    i=$((i + 1))
    if [ "$i" -gt 50 ]; then
      echo "FAIL: STATS probe not answered within 5 s after 20 clients closed" >&2
      kill "$probe_pid" 2>/dev/null || true
      stop_fds
      exit 1
    fi
    sleep 0.1
  done
  wait "$probe_pid" 2>/dev/null || true
  stop_fds
  echo "fd-exhaustion smoke OK: ${fds_cpu} of a core while out of fds; backlog served after closes"
fi

echo "== perfbench output checks =="
# One short run per benchmark workload, for its output checks: every
# served DRAIN must equal the offline Corrected_rules OOSCMR schedule bit
# for bit, and every fleet winner must reproduce its makespan. A failed
# check makes run.sh exit non-zero.
for w in fleet-hf cached-ccsd serve-hf; do
  bash perfbench/run.sh --workload "$w" --seconds 1 >"$tmp/perfbench-$w.out" 2>&1 || {
    echo "FAIL: perfbench $w output checks failed:" >&2
    cat "$tmp/perfbench-$w.out" >&2
    exit 1
  }
  echo "perfbench $w OK: $(grep -o '"correct": [a-z]*' "$tmp/perfbench-$w.out")"
done

echo "== core complexity sweep (fast workload) =="
EXPERIMENTS=core DTSCHED_FAST=1 dune exec bench/main.exe

echo "== core complexity smoke (wall-clock budget) =="
EXPERIMENTS=core-smoke dune exec bench/main.exe

echo "== BENCH_core.json =="
cat BENCH_core.json

echo "== residency reuse gates =="
# The tile residency model must actually hit (reuse_hit_rate > 0) and
# must never lose to the no-sharing baseline at any reuse factor: the
# replay arm of the sweep makes cached <= no-sharing structural, so a
# failure here means the residency accounting itself broke.
grep -q '"hit_rate_positive": true' BENCH_core.json || {
  echo "FAIL: residency sweep recorded a zero hit rate (see BENCH_core.json)" >&2
  exit 1
}
grep -q '"cached_never_worse": true' BENCH_core.json || {
  echo "FAIL: cached makespan exceeded the no-sharing baseline (see BENCH_core.json)" >&2
  exit 1
}
hit=$(grep -o '"reuse_hit_rate": *[0-9.]*' BENCH_core.json | grep -o '[0-9.]*$' || echo 0)
echo "reuse gates OK: hit rate up to ${hit}, cached never worse than no-sharing"

echo "== scaling experiment (fast workload) =="
EXPERIMENTS=scaling DTSCHED_FAST=1 dune exec bench/main.exe

echo "== multi-domain fleet speedup gate =="
# The domain pool must actually win when there is hardware to win
# on: with >= 2 cores, the best multi-domain fleet run must beat the
# sequential baseline. Single-core runners cannot show a speedup by
# construction (domains time-slice one core and couple their GCs), so
# there the gate is skipped with a notice instead of silently passing.
cores=$(grep -o '"recommended_domain_count": *[0-9]*' BENCH_fleet.json | grep -o '[0-9]*$' || echo 1)
speedup=$(grep -o '"best_multi_domain_speedup": *[0-9.]*' BENCH_fleet.json | grep -o '[0-9.]*$' || echo 0)
if [ "${cores:-1}" -ge 2 ]; then
  if awk -v s="$speedup" 'BEGIN { exit !(s >= 1.0) }'; then
    echo "fleet speedup gate OK: best multi-domain speedup ${speedup}x on ${cores} cores"
  else
    echo "FAIL: best multi-domain fleet speedup ${speedup}x < 1.0 with ${cores} cores available" >&2
    exit 1
  fi
else
  # the skip must be machine-readable in the artifact, not just in this log
  grep -q '"gate_skipped_single_core": true' BENCH_fleet.json || {
    echo "FAIL: single-core skip not recorded in BENCH_fleet.json" >&2
    exit 1
  }
  echo "NOTICE: single-core runner (recommended_domain_count=${cores}):"
  echo "NOTICE: fleet speedup gate skipped (measured ${speedup}x; >1 requires >=2 cores,"
  echo "NOTICE: recorded as gate_skipped_single_core in BENCH_fleet.json)"
fi

echo "== cluster experiment (fast workload) =="
EXPERIMENTS=cluster DTSCHED_FAST=1 dune exec bench/main.exe

echo "== cooperative-not-worse gate =="
# On a contended topology cooperative balancing must never lose to
# independent placement: Cluster.run verifies every balanced plan
# against the simulator and falls back when the model mispredicts, so a
# failure here means the verification path itself broke.
grep -q '"cooperative_not_worse": true' BENCH_cluster.json || {
  echo "FAIL: cooperative scheduling lost to independent (see BENCH_cluster.json)" >&2
  exit 1
}
best=$(grep -o '"best_speedup": *[0-9.]*' BENCH_cluster.json | grep -o '[0-9.]*$' || echo 1)
echo "cluster gate OK: cooperative never worse, best speedup ${best}x"

echo "== online experiment (fast workload) =="
EXPERIMENTS=online DTSCHED_FAST=1 dune exec bench/main.exe

echo "== C10K idle-connections gate =="
# On the epoll backend the server must sustain >= 2048 concurrent idle
# connections while still serving live sessions — fd numbers far past
# FD_SETSIZE, which the select fallback cannot even represent. Where
# epoll is unavailable (non-Linux) the bench records a skip, and the
# gate is skipped with a notice instead of silently passing.
if grep -q '"c10k": *{ *"skipped"' BENCH_runtime.json; then
  echo "NOTICE: epoll unavailable on this host; C10K gate skipped"
else
  grep -q '"c10k": *{ *"connections": 2048, "backend": "epoll", "established_s": [0-9.]*, "served": true *}' BENCH_runtime.json || {
    echo "FAIL: epoll server did not sustain 2048 concurrent idle connections (see BENCH_runtime.json)" >&2
    exit 1
  }
  echo "C10K gate OK: 2048 concurrent idle connections served on epoll"
fi

echo "== binary pipelining gate =="
# At every connection count of the mode sweep, binary framing with 16
# pipelined SUBMITs per frame must beat single-request text clients —
# the whole point of the length-prefixed codec and frame batching.
grep -q '"pipelined_binary_beats_text": true' BENCH_runtime.json || {
  echo "FAIL: binary+pipelined throughput did not beat unpipelined text (see BENCH_runtime.json)" >&2
  exit 1
}
echo "pipelining gate OK: binary+pipelined beats text unpipelined at every conn count"

echo "== zero-copy write path gates =="
# On Linux the writev stub must actually be compiled in: the looped
# single-write fallback exists for platforms without writev, and
# silently running it here would invalidate every scatter-gather
# number this PR gates on.
if [ "$(uname -s)" = "Linux" ]; then
  grep -q '"writev_available": true' BENCH_runtime.json || {
    echo "FAIL: writev stub fell back to looped write on Linux (see BENCH_runtime.json)" >&2
    exit 1
  }
  echo "writev gate OK: scatter-gather writev compiled in and used"
else
  echo "NOTICE: non-Linux host; writev availability gate skipped"
fi

# The zero-copy server must not be slower than the previous PR's
# committed numbers: geometric mean over the conns x framing sweep,
# with a 0.9 floor absorbing forked-bench noise on shared runners.
grep -q '"zero_copy_not_slower": true' BENCH_runtime.json || {
  echo "FAIL: zero-copy server lost throughput against the committed baseline (see BENCH_runtime.json)" >&2
  exit 1
}
geomean=$(grep -o '"geomean_speedup_vs_baseline": *[0-9.]*' BENCH_runtime.json | grep -o '[0-9.]*$' || echo 1)
echo "zero-copy throughput gate OK: geomean speedup ${geomean}x vs committed baseline"

# Allocation budget on the in-process hot path: parsing a SUBMIT,
# running the engine pass and formatting the response must stay under
# the budget recorded next to the measurement.
grep -q '"alloc_budget_ok": true' BENCH_runtime.json || {
  echo "FAIL: request hot path exceeded its minor-allocation budget (see BENCH_runtime.json)" >&2
  exit 1
}
mwpr=$(grep -o '"minor_words_per_req": *[0-9.]*' BENCH_runtime.json | head -1 | grep -o '[0-9.]*$' || echo 0)
echo "allocation budget gate OK: ${mwpr} minor words/request"

echo "== BENCH_fleet.json =="
cat BENCH_fleet.json

echo "== BENCH_runtime.json =="
cat BENCH_runtime.json

echo "== BENCH_cluster.json =="
cat BENCH_cluster.json

echo "ci.sh: all green"
