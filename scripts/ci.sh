#!/bin/sh
# CI gate: full build, the test suites, the benchmark smoke, the
# examples, a deterministic chaos smoke, and the engine
# determinism/cache, torn-cache, override, static-analysis,
# model-checking and serving gates.
#
# The benchmark smoke runs every end-to-end workload of
# bench/e2e (BENCHMARK.json) with n = 3 and checks every verdict, so a
# change that breaks the harness fails here.
#
# Each of the five examples must run and exit 0.  Two of them,
# verify_pipeline and custom_geometry, run the code proofs through
# Code_proof.run_layer and run_all; every code-proof line they print
# must report 0 failed.
#
# The chaos smoke replays 1000 fault-injected traces from a fixed seed
# on both monitors: the correct one must survive every
# transactionality, invariant and TLB-consistency check, and the
# deliberately buggy one (unmap without TLB flush) must yield a shrunk
# stale-TLB witness — each run exits non-zero when its expected
# outcome does not hold.  A third run, on the correct monitor, injects
# only frame exhaustion and allocator-bitmap flips, so its hypercalls
# run the code's low specs on exhausted pools and freed table frames;
# it must report no violations.
#
# The engine gate runs the pass three times: without a cache, against a
# cold cache and against the now-warm cache, at --quick budgets, again
# at the default ones (whose security corpus holds 25 traces instead of
# 8), and on the x86_64 geometry at --quick and at the default budgets
# (each x86_64 run under a 60 s timeout: its 4 KiB tables are where the
# monitor-state kernel's cost shows most).  Stdout must be
# byte-identical across each triple (cache state may not influence
# verification output), and so must the x86_64 --lint-json artifacts: on
# a cold run the static-analysis SCCs share their plan's summary tables,
# on a warm one nothing executes.  Each warm run must report cache hits
# and re-execute zero code-proof, static-analysis (absint included),
# invariant, noninterference and trace-NI obligations.
#
# The torn-cache gate fills a cache, truncates every pack to half its
# size, and requires the rerun to print the clean stdout byte for byte
# with 0 cache hits (the torn pack is evicted whole) and no dropped
# cache write, and the run after it to hit all 330 obligations again.
#
# The static-analysis gate additionally requires the lint phase, the
# abstract-interpretation phase (interval bounds + secret-flow taint,
# per call-graph SCC), the borrow-check phase (NLL liveness regions +
# loan dataflow, per function) and the alias phase (Andersen
# points-to footprints, per SCC) to report zero findings on the seed
# 15-layer stack, rejects unknown --lints and --faults names,
# --chaos-traces and --model-check counts below 1, any --jobs but 1 and
# the removed --engine-chaos, --engine-faults, --retries, --mc-por,
# --no-mc-por and --fleet flags at argument parse time, requires the
# --lint-json artifact to be byte-identical across cache states, and
# re-runs the analysis test suites, whose negative fixtures (one
# hand-built MIRlight body per lint, planted hypercall-leak programs for
# secret-flow, an aliased frame-handle leak and a dangling EPCM borrow)
# assert that every lint actually fires and that every seed function's
# alias footprint is exact.
#
# The model-checking gate exhaustively explores the bounded transition
# system (depth 4): deterministic across cache states,
# zero violations on the clean seed, and the planted stale-TLB bug
# rediscovered with its four-event shrunk witness under --buggy-tlb,
# also on the --mc-geometry tiny3 layout; an x86_64 run must
# model-check the tiny universe within 60 s; at depth 5, the depth of
# the bug-hunt benchmark, both monitors must print the same with no
# cache, a cold cache and a warm one.  The explorer is a plain
# breadth-first search; that a reference BFS reaches its states,
# violations and transition and dedup counts is checked by the
# model-checker test suite (test/mc).
#
# The serving gate starts a --serve daemon, whose dispatcher hands its
# one forked worker one request at a time, pushes 50 mixed requests
# through --client (killing the worker halfway, by the pid its
# "fleet worker 0 started" log line names), among them a depth-5
# --buggy-tlb exploration whose response carries violations and shrunk
# witnesses, and requires every response byte-identical to a one-shot
# run of the same flags, the warm path to re-execute nothing, and the
# killed worker respawned without a dropped response; and a daemon
# whose worker dies at start-up every time (its --cache sits under a
# regular file) must answer a client with an error instead of
# respawning it for ever.
#
# Performance is measured end to end by bench/e2e (BENCHMARK.json), not
# here.
set -eu
cd "$(dirname "$0")/.."

dune build @all
dune runtest
dune build @bench/e2e/smoke

for ex in quickstart enclave_lifecycle mapping_attack verify_pipeline custom_geometry; do
  out=$(dune exec "examples/$ex.exe") || {
    echo "ci: example $ex failed" >&2; exit 1; }
  case $ex in
    verify_pipeline | custom_geometry)
      proofs=$(printf '%s\n' "$out" | grep -E '[0-9]+ cases[,:] ') || {
        echo "ci: example $ex printed no code-proof line" >&2; exit 1; }
      if printf '%s\n' "$proofs" | grep -vqE ' 0 failed$'; then
        echo "ci: example $ex reports failed code-proof cases:" >&2
        printf '%s\n' "$proofs" >&2
        exit 1
      fi ;;
  esac
done
echo "ci: the five examples run, and their code proofs report 0 failed"

dune exec bin/hyperenclave_verify.exe -- \
  --quick --chaos --chaos-traces 1000 --seed 2024
dune exec bin/hyperenclave_verify.exe -- \
  --quick --chaos --chaos-traces 1000 --seed 2024 --buggy-tlb
out=$(dune exec bin/hyperenclave_verify.exe -- \
  --quick --chaos --chaos-traces 1000 --faults exhaustion,bitmap-bitflip \
  --seed 2024) || {
  echo "ci: chaos on exhausted pools and flipped bitmaps failed" >&2; exit 1; }
printf '%s\n' "$out"
printf '%s\n' "$out" | grep -q 'no violations' || {
  echo "ci: chaos on exhausted pools and flipped bitmaps reported violations" >&2
  exit 1; }

# --- engine determinism + proof-cache gate --------------------------
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

dune exec bin/hyperenclave_verify.exe -- \
  --quick --seed 2024 \
  --lint-json "$workdir/serial-lints.json" > "$workdir/serial.out"
dune exec bin/hyperenclave_verify.exe -- \
  --quick --seed 2024 --cache "$workdir/pcache" \
  --lint-json "$workdir/cold-lints.json" \
  --json-out "$workdir/cold.json" > "$workdir/cold.out"
dune exec bin/hyperenclave_verify.exe -- \
  --quick --seed 2024 --cache "$workdir/pcache" \
  --json-out "$workdir/warm.json" --trace-out "$workdir/warm.jsonl" \
  > "$workdir/warm.out"

diff "$workdir/serial.out" "$workdir/cold.out"
diff "$workdir/serial.out" "$workdir/warm.out"
diff "$workdir/serial-lints.json" "$workdir/cold-lints.json" || {
  echo "ci: --lint-json output depends on cache state" >&2; exit 1; }

dune exec bin/hyperenclave_verify.exe -- --seed 2024 > "$workdir/serial-default.out"
dune exec bin/hyperenclave_verify.exe -- \
  --seed 2024 --cache "$workdir/pcache-default" > "$workdir/cold-default.out"
dune exec bin/hyperenclave_verify.exe -- \
  --seed 2024 --cache "$workdir/pcache-default" \
  --json-out "$workdir/warm-default.json" > "$workdir/warm-default.out"
diff "$workdir/serial-default.out" "$workdir/cold-default.out"
diff "$workdir/serial-default.out" "$workdir/warm-default.out"

for budget in quick default; do
  case $budget in
    quick) x86="--geometry x86_64 --quick --seed 2024"; tag=x86 ;;
    default) x86="--geometry x86_64 --seed 2024"; tag=x86-default ;;
  esac
  # shellcheck disable=SC2086
  timeout 60 _build/default/bin/hyperenclave_verify.exe $x86 \
    --lint-json "$workdir/serial-$tag-lints.json" > "$workdir/serial-$tag.out" || {
    echo "ci: x86_64 run ($budget budgets) failed or ran past 60 s" >&2; exit 1; }
  for run in cold warm; do
    # shellcheck disable=SC2086
    timeout 60 _build/default/bin/hyperenclave_verify.exe $x86 \
      --cache "$workdir/pcache-$tag" --lint-json "$workdir/$run-$tag-lints.json" \
      --json-out "$workdir/$run-$tag.json" > "$workdir/$run-$tag.out" || {
      echo "ci: x86_64 $run run ($budget budgets) failed or ran past 60 s" >&2; exit 1; }
    diff "$workdir/serial-$tag.out" "$workdir/$run-$tag.out"
    diff "$workdir/serial-$tag-lints.json" "$workdir/$run-$tag-lints.json" || {
      echo "ci: x86_64 --lint-json output ($budget budgets) depends on cache state" >&2
      exit 1; }
  done
done
echo "ci: engine output identical with no cache, a cold cache and a warm cache (quick and default budgets, on tiny and x86_64)"

# --- override-composition gate --------------------------------------
# Composition may never show up in verdicts: test/differential, which
# 'dune runtest' runs above, holds every function's composed report
# (same-layer callees stubbed by their oracle specs) equal to its
# monolithic one.  That the default plan stubs same-layer calls is
# pinned by the serve suite's 'summary counts stubbed calls' test, and
# the engine 'overrides' unit group pins the rest: the proven gate
# opens only after callee spec-proofs, a quarantined callee falls the
# caller back to the body (never a vacuous pass), and fingerprints
# digest own body + direct callee specs only, so editing one mid-stack
# function invalidates exactly itself and its direct callers.  It also
# counts the override cost: on tiny and x86_64, no function's composed
# battery executes more MIR steps than its monolithic one.
dune exec test/engine/test_engine.exe -- test overrides > /dev/null || {
  echo "ci: override gate/fingerprint/step-count unit group failed" >&2; exit 1; }
echo "ci: override gate ok (proven gate, fingerprints, composed batteries run no more MIR steps)"

hits=$(sed -n 's/^  "cache_hits": *\([0-9][0-9]*\).*/\1/p' "$workdir/warm.json")
[ -n "$hits" ] && [ "$hits" -gt 0 ] || {
  echo "ci: warm run reported no cache hits" >&2; exit 1; }
for warm in warm warm-default warm-x86 warm-x86-default; do
  for phase in code-proofs analysis absint borrow alias \
      invariants noninterference trace-ni; do
    grep "\"phase\": \"$phase\"" "$workdir/$warm.json" | grep -q '"executed": 0' || {
      echo "ci: $warm run re-executed $phase obligations" >&2; exit 1; }
  done
  grep -q '"verdict": "pass"' "$workdir/$warm.json" || {
    echo "ci: $warm run verdict is not pass" >&2; exit 1; }
done
echo "ci: warm cache replayed $hits obligations, zero code proofs, lints or security checks re-executed"

# --- static-analysis gate -------------------------------------------
grep -E -q 'lint checks: [0-9]+ passed, 0 findings' "$workdir/serial.out" || {
  echo "ci: static analysis reported findings on the seed stack" >&2; exit 1; }
grep -E -q 'SCC obligations: 0 secret-flow findings, 0 interval findings' \
  "$workdir/serial.out" || {
  echo "ci: abstract interpretation reported findings on the seed stack" >&2
  exit 1; }
grep -E -q 'borrow checks: [0-9]+ passed, 0 findings' "$workdir/serial.out" || {
  echo "ci: borrow checker reported findings on the seed stack" >&2; exit 1; }
grep -E -q 'SCC obligations: 0 alias findings' "$workdir/serial.out" || {
  echo "ci: alias analysis reported findings on the seed stack" >&2; exit 1; }
# an unknown lint name or group selector must be rejected at argument
# parse time, loudly, like --geometry's enum
if dune exec bin/hyperenclave_verify.exe -- --quick --lints bogus \
    > /dev/null 2> "$workdir/lints.err"; then
  echo "ci: unknown --lints name was accepted" >&2; exit 1
fi
grep -q 'unknown lint' "$workdir/lints.err" || {
  echo "ci: unknown --lints rejection does not name the lint" >&2; exit 1; }
# fault-kind lists are parsed the same way: an unknown kind is a usage
# error naming the kind, with or without --chaos
if dune exec bin/hyperenclave_verify.exe -- --quick --faults bogus \
    > /dev/null 2> "$workdir/faults.err"; then
  echo "ci: unknown --faults kind was accepted" >&2; exit 1
fi
grep -q '"bogus"' "$workdir/faults.err" || {
  echo "ci: unknown --faults rejection does not name the kind" >&2; exit 1; }
# a count below its minimum is a usage error naming the flag, before
# any phase runs: zero chaos traces would pass vacuously, a zero depth
# would silently run as 1, and a negative deadline would silently run
# as none; --jobs accepts only 1
for arg in "--chaos-traces 0" "--chaos-traces=-1" "--model-check 0" "--jobs 0" \
    "--jobs 2" "--timeout-ms=-5"; do
  flag=${arg%%[ =]*}
  # shellcheck disable=SC2086
  if dune exec bin/hyperenclave_verify.exe -- --quick --chaos $arg \
      > "$workdir/count.out" 2> "$workdir/count.err"; then
    echo "ci: $arg was accepted" >&2; exit 1
  fi
  [ ! -s "$workdir/count.out" ] || {
    echo "ci: $arg ran a phase before it was rejected" >&2; exit 1; }
  grep -q -- "$flag" "$workdir/count.err" || {
    echo "ci: $arg rejection does not name $flag" >&2; exit 1; }
done
dune exec test/analysis/test_analysis.exe > /dev/null || {
  echo "ci: analysis suite (negative lint fixtures) failed" >&2; exit 1; }
dune exec test/analysis/test_absint.exe > /dev/null || {
  echo "ci: absint suite (planted-leak fixtures, lattice laws) failed" >&2
  exit 1; }
# the engine no longer injects faults into itself or retries an
# obligation, the model checker has no partial-order reduction to
# switch, and the daemon always forks one worker: those flags are
# unknown options (exit 124, nothing run)
for arg in "--engine-chaos 42" "--engine-faults all" "--retries 2" "--mc-por" \
    "--no-mc-por" "--fleet 2"; do
  flag=${arg%% *}
  rc=0
  # shellcheck disable=SC2086
  dune exec bin/hyperenclave_verify.exe -- --quick $arg \
    > "$workdir/gone.out" 2> "$workdir/gone.err" || rc=$?
  [ "$rc" -eq 124 ] || {
    echo "ci: $arg exited $rc, not 124 (unknown option)" >&2; exit 1; }
  [ ! -s "$workdir/gone.out" ] || {
    echo "ci: $arg ran a phase before it was rejected" >&2; exit 1; }
  grep -q -- "$flag" "$workdir/gone.err" || {
    echo "ci: $arg rejection does not name $flag" >&2; exit 1; }
done
echo "ci: lints clean on the seed stack (incl. borrow + alias), all negative fixtures fire, bad --lints/--faults, counts below their minimum, --jobs but 1 and the removed engine, reduction and --fleet flags rejected"

# --- torn-cache gate -----------------------------------------------
# A pack torn after its atomic rename (a write that fsync would have
# caught) costs time, never a verdict: the next run evicts it whole,
# recomputes every obligation and prints the clean run's stdout byte
# for byte; the run after that replays everything from the new pack.
dune exec bin/hyperenclave_verify.exe -- \
  --quick --seed 2024 --cache "$workdir/torn-cache" > /dev/null
for pack in "$workdir"/torn-cache/*.pack; do
  truncate -s $(($(wc -c < "$pack") / 2)) "$pack"
done
for run in torn torn-warm; do
  dune exec bin/hyperenclave_verify.exe -- \
    --quick --seed 2024 --cache "$workdir/torn-cache" \
    --json-out "$workdir/$run.json" > "$workdir/$run.out"
  diff "$workdir/serial.out" "$workdir/$run.out" || {
    echo "ci: $run run over the torn cache differs from the clean run" >&2; exit 1; }
  grep -q '^  "cache_write_failures": 0,' "$workdir/$run.json" || {
    echo "ci: $run run reports dropped cache writes" >&2; exit 1; }
done
grep -q '^  "cache_hits": 0,' "$workdir/torn.json" || {
  echo "ci: a torn pack was not evicted whole" >&2; exit 1; }
grep -q '^  "cache_hits": 330,' "$workdir/torn-warm.json" || {
  echo "ci: the run after the eviction did not hit all 330 obligations" >&2; exit 1; }
echo "ci: torn cache evicted (0 hits, then 330), verdicts identical, 0 dropped cache writes"

# --- model-checking gate --------------------------------------------
# Exhaustive bounded exploration must be as deterministic as the rest
# of the pass: the phase-11 output (states explored, transitions,
# violations) is diffed byte-for-byte across a run with no cache, a
# cold cache and the warm cache, and the warm run must not re-execute
# the model-check obligation.  On the clean seed the checker must report
# zero violations over every reachable state; under --buggy-tlb it must
# rediscover the planted stale-TLB bug exhaustively and shrink the
# counterexample to its known four-event witness.
dune exec bin/hyperenclave_verify.exe -- \
  --quick --seed 2024 --model-check 4 > "$workdir/mc-serial.out"
dune exec bin/hyperenclave_verify.exe -- \
  --quick --seed 2024 --model-check 4 --cache "$workdir/mc-cache" \
  > "$workdir/mc-cold.out"
dune exec bin/hyperenclave_verify.exe -- \
  --quick --seed 2024 --model-check 4 --cache "$workdir/mc-cache" \
  --json-out "$workdir/mc-warm.json" > "$workdir/mc-warm.out"
diff "$workdir/mc-serial.out" "$workdir/mc-cold.out"
diff "$workdir/mc-serial.out" "$workdir/mc-warm.out"
grep '"phase": "model-check"' "$workdir/mc-warm.json" \
  | grep -q '"executed": 0' || {
  echo "ci: warm run re-executed model-check obligations" >&2; exit 1; }
grep -q 'no violations: every reachable state' "$workdir/mc-serial.out" || {
  echo "ci: model checker reported violations on the clean seed" >&2; exit 1; }
dune exec bin/hyperenclave_verify.exe -- \
  --quick --seed 2024 --model-check 4 --buggy-tlb --chaos \
  > "$workdir/mc-buggy.out"
grep -q 'rediscovered the planted stale-TLB bug exhaustively' \
  "$workdir/mc-buggy.out" || {
  echo "ci: model checker missed the planted stale-TLB bug" >&2; exit 1; }
grep -q 'minimal witness: 4 events' "$workdir/mc-buggy.out" || {
  echo "ci: stale-TLB counterexample did not shrink to 4 events" >&2; exit 1; }
# the checker explores the --mc-geometry layout, whatever --geometry
# names: on tiny3 the planted bug is rediscovered with the same
# four-event witness, and an x86_64 run checks the tiny 12-event
# universe within a minute instead of exploring the x86_64 layout
dune exec bin/hyperenclave_verify.exe -- \
  --quick --seed 2024 --model-check 4 --mc-geometry tiny3 --buggy-tlb \
  > "$workdir/mc-tiny3.out"
grep -q 'rediscovered the planted stale-TLB bug exhaustively' \
  "$workdir/mc-tiny3.out" || {
  echo "ci: model checker missed the planted bug on tiny3" >&2; exit 1; }
grep -q 'minimal witness: 4 events' "$workdir/mc-tiny3.out" || {
  echo "ci: tiny3 stale-TLB counterexample did not shrink to 4 events" >&2
  exit 1; }
timeout 60 _build/default/bin/hyperenclave_verify.exe \
  --geometry x86_64 --quick --model-check 3 > "$workdir/mc-x86.out" || {
  echo "ci: x86_64 model check failed or ran past 60 s" >&2; exit 1; }
grep -q 'depth 3, 12-event universe' "$workdir/mc-x86.out" || {
  echo "ci: x86_64 run did not model-check the tiny universe" >&2; exit 1; }
# depth 5, as bug-hunt runs it: byte-identical with no cache, a cold
# cache and a warm one, on the correct and the buggy monitor
for tlb in "" --buggy-tlb; do
  # shellcheck disable=SC2086
  dune exec bin/hyperenclave_verify.exe -- \
    --quick --seed 2024 --model-check 5 $tlb > "$workdir/mc5-nocache.out"
  for state in cold warm; do
    # shellcheck disable=SC2086
    dune exec bin/hyperenclave_verify.exe -- \
      --quick --seed 2024 --model-check 5 $tlb --cache "$workdir/mc5-cache" \
      > "$workdir/mc5-$state.out"
    diff "$workdir/mc5-nocache.out" "$workdir/mc5-$state.out" || {
      echo "ci: depth-5 model check ${tlb:-(correct monitor)} differs on a $state cache" >&2
      exit 1; }
  done
done
echo "ci: model-check gate ok (deterministic at depths 4 and 5, clean seed clean, bug rediscovered, --mc-geometry honoured)"

# --- serving gate ---------------------------------------------------
# The --serve daemon must be a drop-in evaluation vector: every
# response byte-identical to a one-shot run of the same request
# (stdout verbatim; summaries compared through the deterministic
# --scrub-summary projection, which both sides write), the warm path
# must re-execute nothing (the unscrubbed client summary reports
# executed 0 and zero code-proof re-executions), and the worker
# killed mid-run must be respawned without dropping or corrupting a
# single response.
exe=_build/default/bin/hyperenclave_verify.exe
serve_args() {
  case $1 in
    0) echo "--quick --seed 2024" ;;
    1) echo "--quick --seed 2024 --lints body" ;;
    2) echo "--quick --seed 7" ;;
    3) echo "--quick --seed 2024 --model-check 4" ;;
    4) echo "--quick --geometry x86_64 --lints body" ;;
    5) echo "--quick --seed 2024 --model-check 5 --buggy-tlb" ;;
  esac
}
for c in 0 1 2 3 4 5; do
  # shellcheck disable=SC2046
  "$exe" $(serve_args "$c") --scrub-summary \
    --json-out "$workdir/serve-ref-$c.json" > "$workdir/serve-ref-$c.out"
done
sock="$workdir/serve.sock"
"$exe" --serve "$sock" --cache "$workdir/serve-cache" \
  2> "$workdir/serve.err" &
serve_pid=$!
i=0
while [ "$i" -lt 100 ] && ! [ -S "$sock" ]; do sleep 0.1; i=$((i + 1)); done
[ -S "$sock" ] || { echo "ci: serve daemon did not come up" >&2; exit 1; }
w0=""
i=0
while [ "$i" -lt 50 ]; do
  c=$((i % 6))
  # shellcheck disable=SC2046
  "$exe" --client "$sock" $(serve_args "$c") --scrub-summary \
    --json-out "$workdir/serve-cli.json" > "$workdir/serve-cli.out"
  diff "$workdir/serve-ref-$c.out" "$workdir/serve-cli.out" || {
    echo "ci: daemon stdout differs from one-shot (config $c, request $i)" >&2
    exit 1; }
  diff "$workdir/serve-ref-$c.json" "$workdir/serve-cli.json" || {
    echo "ci: daemon summary differs from one-shot (config $c, request $i)" >&2
    exit 1; }
  if [ "$i" -eq 24 ]; then
    # kill the worker mid-run: the remaining 25 requests must still
    # come back, byte-identical
    w0=$(sed -n 's/.*fleet worker 0 started (pid \([0-9]*\)).*/\1/p' \
      "$workdir/serve.err" | head -1)
    [ -n "$w0" ] || { echo "ci: no worker pid in daemon log" >&2; exit 1; }
    kill -9 "$w0"
  fi
  i=$((i + 1))
done
for c in 0 1 2 3 4 5; do
  # shellcheck disable=SC2046
  "$exe" --client "$sock" $(serve_args "$c") \
    --json-out "$workdir/serve-warm-$c.json" > /dev/null
  grep -q '^  "executed": 0,' "$workdir/serve-warm-$c.json" || {
    echo "ci: daemon warm path re-executed obligations (config $c)" >&2
    exit 1; }
done
grep '"phase": "code-proofs"' "$workdir/serve-warm-0.json" \
  | grep -q '"executed": 0' || {
  echo "ci: daemon warm path re-executed code-proof obligations" >&2; exit 1; }
kill "$serve_pid"
wait "$serve_pid" 2> /dev/null || true
grep -q 'respawning' "$workdir/serve.err" || {
  echo "ci: worker kill did not trigger a respawn" >&2; exit 1; }
# the worker dies in Cache.create when --cache sits under a regular
# file: respawning is bounded, so the client gets an error (exit 2)
# instead of waiting for ever, and the daemon still shuts down
: > "$workdir/not-a-dir"
dsock="$workdir/dying.sock"
"$exe" --serve "$dsock" --cache "$workdir/not-a-dir/cache" \
  2> "$workdir/dying.err" &
dying_pid=$!
i=0
while [ "$i" -lt 100 ] && ! [ -S "$dsock" ]; do sleep 0.1; i=$((i + 1)); done
[ -S "$dsock" ] || { echo "ci: dying-worker daemon did not come up" >&2; exit 1; }
if timeout 60 "$exe" --client "$dsock" --quick > /dev/null 2> "$workdir/dying-client.err"
then
  echo "ci: a daemon whose worker always dies answered a verdict" >&2; exit 1
else
  rc=$?
  [ "$rc" -eq 2 ] || {
    echo "ci: client of a daemon whose worker always dies exited $rc, not 2" >&2; exit 1; }
fi
grep -q 'daemon error:' "$workdir/dying-client.err" || {
  echo "ci: client of a daemon whose worker always dies printed no daemon error" >&2
  exit 1; }
kill "$dying_pid"
wait "$dying_pid" 2> /dev/null || true
echo "ci: serve gate ok (50 daemon responses byte-identical to one-shot across 6 configs, warm path executed 0, killed worker respawned, a worker dying at start-up answered with an error)"

echo "ci: all green"
