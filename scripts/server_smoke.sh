#!/usr/bin/env bash
# Server smoke: builds the release CLI, spawns `starling serve` on an
# ephemeral port, drives a scripted client session that exercises the ok /
# inconclusive / shutdown paths and asserts exit codes and graceful drain,
# then kill-restart-verify on a durable store and kill-mid-pipeline.
# Timing the server is `benchmark/run.sh`'s job (the `server_mix` workload).
#
# Usage: scripts/server_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release -q -p starling-cli

BIN=target/release/starling
LOG=$(mktemp)
LOG2=$(mktemp)
DATADIR=$(mktemp -d)
SERVER_PID=""
SERVER2_PID=""
trap 'kill "$SERVER_PID" "$SERVER2_PID" 2>/dev/null || true; rm -f "$LOG" "$LOG2"; rm -rf "$DATADIR"' EXIT

# Waits for `starling serve` to print its ephemeral address into $1,
# echoing the address; fails the script if it never appears.
wait_for_addr() {
  local log="$1" addr=""
  for _ in $(seq 1 100); do
    addr=$(sed -n 's/^starling-server listening on //p' "$log")
    [[ -n "$addr" ]] && break
    sleep 0.1
  done
  if [[ -z "$addr" ]]; then
    echo "server did not start:" >&2
    cat "$log" >&2
    return 1
  fi
  echo "$addr"
}

"$BIN" serve --addr 127.0.0.1:0 >"$LOG" 2>&1 &
SERVER_PID=$!

# The serve subcommand prints its (ephemeral) address on the first line.
ADDR=$(wait_for_addr "$LOG")
echo "server listening on $ADDR"

# Scripted session covering the full loop: DDL+DML (load/exec), analysis,
# the §6.4 refinement (certify + order flip confluence to guaranteed and
# explore to a single final state), a budget-exhausted exec (must be an
# `inconclusive` error response, not a teardown), stats, graceful
# shutdown. `set -e` fails the script if the client exits non-zero.
RESPONSES=$("$BIN" client --addr "$ADDR" <<'EOF'
{"id":1,"op":"ping"}
{"id":2,"op":"load","script":"create table t (x int); create table u (x int); insert into u values (0); create rule a on t when inserted then update u set x = 1 end; create rule b on t when inserted then update u set x = 2 end; insert into t values (5);"}
{"id":3,"op":"exec","sql":"insert into t values (1);"}
{"id":4,"op":"analyze"}
{"id":5,"op":"certify","kind":"commute","a":"a","b":"b"}
{"id":6,"op":"order","higher":"a","lower":"b"}
{"id":7,"op":"analyze"}
{"id":8,"op":"explore"}
{"id":9,"op":"load","script":"create table g (x int); create rule grow on g when inserted then insert into g select x + 1 from inserted end;"}
{"id":10,"op":"exec","sql":"insert into g values (1);","budget":{"max_considerations":5}}
{"id":11,"op":"stats"}
{"id":12,"op":"shutdown"}
{"id":13,"op":"quit"}
EOF
)
echo "$RESPONSES"
echo "$RESPONSES" | grep -q '"id":1,"ok":true,"result":{"pong":true}'
echo "$RESPONSES" | grep -q '"id":3,"ok":true'
echo "$RESPONSES" | grep '"id":4' | grep -q '"confluence_guaranteed":false'
echo "$RESPONSES" | grep -q '"id":5,"ok":true'
echo "$RESPONSES" | grep -q '"id":6,"ok":true'
echo "$RESPONSES" | grep '"id":7' | grep -q '"confluence_guaranteed":true'
echo "$RESPONSES" | grep -q '"id":8,"ok":true'
echo "$RESPONSES" | grep -q '"id":10,"ok":false,"error":{"code":"inconclusive"'
echo "$RESPONSES" | grep -q '"id":11,"ok":true'
echo "$RESPONSES" | grep -q '"id":12,"ok":true,"result":{"shutting_down":true}'
echo "$RESPONSES" | grep -q '"id":13,"ok":true,"result":{"bye":true}'

# Graceful drain: the server process must exit 0 by itself once its last
# session quit.
for _ in $(seq 1 100); do
  kill -0 "$SERVER_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$SERVER_PID" 2>/dev/null; then
  echo "server did not drain after shutdown" >&2
  exit 1
fi
wait "$SERVER_PID"
SERVER_PID=""
grep -q "starling-server drained" "$LOG"
echo "graceful drain OK"

# Crash durability: start a durable server, create a persistent store and
# record its digest, then SIGKILL the server (no drain, no final snapshot —
# recovery must come from the WAL tail alone), restart on the same data
# dir, reattach, and require the identical digest.
"$BIN" serve --addr 127.0.0.1:0 --data-dir "$DATADIR" --sync always >"$LOG2" 2>&1 &
SERVER2_PID=$!
ADDR2=$(wait_for_addr "$LOG2")
echo "durable server listening on $ADDR2 (data dir $DATADIR)"

BEFORE=$("$BIN" client --addr "$ADDR2" <<'EOF'
{"id":1,"op":"load","persist":"smoke","script":"create table t (x int); create table audit (x int); create rule mirror on t when inserted then insert into audit select x from inserted end;"}
{"id":2,"op":"exec","sql":"insert into t values (1); insert into t values (2);"}
{"id":3,"op":"digest"}
EOF
)
echo "$BEFORE"
echo "$BEFORE" | grep -q '"id":1,"ok":true'
echo "$BEFORE" | grep -q '"persist":"smoke"'
DIGEST_BEFORE=$(echo "$BEFORE" | sed -n 's/.*"id":3.*"digest":"\([0-9a-f]*\)".*/\1/p')
[[ -n "$DIGEST_BEFORE" ]]

kill -9 "$SERVER2_PID"
wait "$SERVER2_PID" 2>/dev/null || true
echo "killed durable server (SIGKILL), restarting on the same data dir"

"$BIN" serve --addr 127.0.0.1:0 --data-dir "$DATADIR" --sync always >"$LOG2" 2>&1 &
SERVER2_PID=$!
ADDR3=$(wait_for_addr "$LOG2")

AFTER=$("$BIN" client --addr "$ADDR3" <<'EOF'
{"id":1,"op":"load","persist":"smoke"}
{"id":2,"op":"digest"}
{"id":3,"op":"shutdown"}
{"id":4,"op":"quit"}
EOF
)
echo "$AFTER"
echo "$AFTER" | grep -q '"id":1,"ok":true'
echo "$AFTER" | grep -q '"recovered":true'
DIGEST_AFTER=$(echo "$AFTER" | sed -n 's/.*"id":2.*"digest":"\([0-9a-f]*\)".*/\1/p')
if [[ "$DIGEST_BEFORE" != "$DIGEST_AFTER" ]]; then
  echo "digest mismatch after crash recovery: $DIGEST_BEFORE != $DIGEST_AFTER" >&2
  exit 1
fi
for _ in $(seq 1 100); do
  kill -0 "$SERVER2_PID" 2>/dev/null || break
  sleep 0.1
done
wait "$SERVER2_PID" 2>/dev/null || true
SERVER2_PID=""
echo "kill-restart-verify OK (digest $DIGEST_AFTER)"

# Kill-mid-pipeline: a client pipelines a store-bound load plus a burst of
# execs into one socket write, ends with a half-written request line, and
# vanishes without reading a single response. The server must discard the
# torn line, drop the dead session's queued work, release the store's
# single-writer claim, and keep serving — a healthy client must be able to
# reattach to the same store and the server must still drain cleanly.
"$BIN" serve --addr 127.0.0.1:0 --data-dir "$DATADIR" --sync always >"$LOG2" 2>&1 &
SERVER2_PID=$!
ADDR4=$(wait_for_addr "$LOG2")
PORT4=${ADDR4##*:}
exec 3<>"/dev/tcp/127.0.0.1/${PORT4}"
{
  printf '%s\n' '{"id":1,"op":"load","persist":"smoke"}'
  printf '%s\n' '{"id":2,"op":"exec","sql":"insert into t values (3);"}'
  printf '%s\n' '{"id":3,"op":"exec","sql":"insert into t values (4);"}'
  printf '%s' '{"id":4,"op":"exec","sql":"insert into t val'
} >&3
exec 3>&- 3<&-
echo "pipelined client killed mid-request-line"

# The dead session's store claim is released when the server reaps the
# connection; retry the reattach until it lands. An attempt that finds the
# store still claimed must leave the server up for the next one, so the
# shutdown is sent only once the reattach has landed.
REATTACHED=""
for _ in $(seq 1 100); do
  REATTACHED=$("$BIN" client --addr "$ADDR4" <<'EOF' || true
{"id":1,"op":"load","persist":"smoke"}
{"id":2,"op":"digest"}
{"id":3,"op":"ping"}
{"id":4,"op":"quit"}
EOF
)
  echo "$REATTACHED" | grep -q '"id":1,"ok":true' && break
  sleep 0.1
done
echo "$REATTACHED"
echo "$REATTACHED" | grep -q '"id":1,"ok":true'
echo "$REATTACHED" | grep -q '"id":2,"ok":true'
echo "$REATTACHED" | grep -q '"id":3,"ok":true,"result":{"pong":true}'
echo "$REATTACHED" | grep -q '"id":4,"ok":true,"result":{"bye":true}'
"$BIN" client --addr "$ADDR4" <<'EOF'
{"id":5,"op":"shutdown"}
{"id":6,"op":"quit"}
EOF
for _ in $(seq 1 100); do
  kill -0 "$SERVER2_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$SERVER2_PID" 2>/dev/null; then
  echo "server did not drain after kill-mid-pipeline" >&2
  exit 1
fi
wait "$SERVER2_PID" 2>/dev/null || true
SERVER2_PID=""
echo "kill-mid-pipeline OK"
