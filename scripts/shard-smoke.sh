#!/bin/sh
# shard-smoke: boot two blogserved shard servers on interval slices of
# the demo corpus plus a scatter-gather coordinator fanning out to
# them, and a single-binary `-shard-count 2` coordinator over
# in-process shard servers; assert both coordinators' cross-boundary
# answers match an unsharded server's, push an interval through the
# remote coordinator (asserting the composite generation bump and exact
# generation-keyed cache eviction), check the per-shard /debug/stats
# rows, and drain all five processes cleanly. `make shard-smoke` runs this; CI's examples job runs
# that target, so the sharded deployment shape cannot drift.
set -eu

P0="${SHARD_SMOKE_PORT:-18180}"
P1=$((P0 + 1))
P2=$((P0 + 2))
P3=$((P0 + 3))
P4=$((P0 + 4))
S0="http://127.0.0.1:$P0"   # shard server 0: intervals 0:4
S1="http://127.0.0.1:$P1"   # shard server 1: intervals 4:7
CO="http://127.0.0.1:$P2"   # coordinator over S0,S1
UN="http://127.0.0.1:$P3"   # unsharded reference server
IP="http://127.0.0.1:$P4"   # coordinator over 2 in-process shard servers
LOG0="$(mktemp)"; LOG1="$(mktemp)"; LOG2="$(mktemp)"; LOG3="$(mktemp)"; LOG4="$(mktemp)"
BINDIR="$(mktemp -d)"
BIN="$BINDIR/blogserved"

fail() {
	echo "shard-smoke: FAIL: $1" >&2
	for f in "$LOG0" "$LOG1" "$LOG2" "$LOG3" "$LOG4"; do
		echo "--- $f ---" >&2
		cat "$f" >&2
	done
	exit 1
}

echo "shard-smoke: building blogserved"
go build -o "$BIN" ./cmd/blogserved

"$BIN" -demo -intervals 0:4 -addr "127.0.0.1:$P0" 2>"$LOG0" &
PID0=$!
"$BIN" -demo -intervals 4:7 -addr "127.0.0.1:$P1" 2>"$LOG1" &
PID1=$!
"$BIN" -demo -addr "127.0.0.1:$P3" 2>"$LOG3" &
PID3=$!
"$BIN" -demo -shard-count 2 -addr "127.0.0.1:$P4" 2>"$LOG4" &
PID4=$!
# The coordinator waits for both shards' /readyz itself (-shards-wait).
"$BIN" -shards "127.0.0.1:$P0,127.0.0.1:$P1" -addr "127.0.0.1:$P2" 2>"$LOG2" &
PID2=$!
trap 'kill "$PID0" "$PID1" "$PID2" "$PID3" "$PID4" 2>/dev/null || true; rm -f "$LOG0" "$LOG1" "$LOG2" "$LOG3" "$LOG4"; rm -rf "$BINDIR"' EXIT

ready() {
	base="$1"; name="$2"
	for i in $(seq 1 150); do
		if curl -fsS "$base/readyz" >/dev/null 2>&1; then return 0; fi
		[ "$i" = 150 ] && fail "$name never became ready"
		sleep 0.2
	done
}
ready "$S0" "shard 0"
ready "$S1" "shard 1"
ready "$UN" "unsharded reference"
ready "$CO" "coordinator"
ready "$IP" "in-process coordinator"
echo "shard-smoke: all ready"

# The coordinator's partition map: 7 intervals across 2 shards.
meta="$(curl -fsS "$CO/v1/meta")" || fail "GET /v1/meta"
case "$meta" in
*'"intervals":7'*) echo "shard-smoke: OK meta (7 intervals)" ;;
*) fail "coordinator meta: $meta" ;;
esac

# The scatter-gather answers of both coordinators must equal the
# unsharded server's, byte for byte — bounded top-k paths cross the
# 0:4/4:7 (and, in process, 0:3/3:7) boundary, so this exercises
# shard-local solves, the boundary window and the merge. Solver work
# counters legitimately differ (partials sum), so the flat "stats"
# object is stripped before comparing.
for q in '/v1/stable-clusters?k=3&l=2' '/v1/stable-clusters?k=3' \
	'/v1/timeseries?keyword=somalia' '/v1/bursts?keyword=somalia' \
	'/v1/search?terms=somalia&interval=5' '/v1/correlations?keyword=somalia&interval=6&n=3'; do
	b="$(curl -fsS "$UN$q" | sed 's/"stats":{[^}]*}//')" || fail "unsharded GET $q"
	for co in "$CO" "$IP"; do
		a="$(curl -fsS "$co$q" | sed 's/"stats":{[^}]*}//')" || fail "coordinator $co GET $q"
		[ "$a" = "$b" ] || fail "divergence on $q:
  coordinator $co: $a
  unsharded:   $b"
	done
	echo "shard-smoke: OK equivalence $q (remote and in-process shards)"
done
# In-process shard servers log through the process logger, tagged with
# their shard.
grep -q '"shard":1' "$LOG4" || fail "no shard-tagged access log line from an in-process shard"

# Per-shard observability: /debug/stats carries one row per shard.
stats="$(curl -fsS "$CO/debug/stats")" || fail "GET /debug/stats"
case "$stats" in
*'"shards":['*'"shard":0'*'"shard":1'*) echo "shard-smoke: OK per-shard stats rows" ;;
*) fail "debug/stats missing shard rows: $stats" ;;
esac

# Warm one generation-keyed and one interval-scoped entry.
curl -fsS "$CO/v1/stable-clusters?k=3&l=2" >/dev/null
curl -fsS "$CO/v1/search?terms=somalia&interval=0" >/dev/null
hdr="$(curl -fsS -D - -o /dev/null "$CO/v1/stable-clusters?k=3&l=2")"
case "$hdr" in
*"X-Cache: hit"*) ;;
*) fail "hot coordinator query was not a cache hit: $hdr" ;;
esac

# Push the next global interval (7) through the coordinator: routed to
# the tail shard, composite generation 1 -> 2.
body="$(curl -fsS -X POST "$CO/v1/push" -H 'Content-Type: application/json' \
	-d '{"interval":7,"label":"pushed","docs":[
	      {"id":900001,"keywords":["somalia","election"]},
	      {"id":900002,"keywords":["storm","flood"]}]}')" \
	|| fail "POST /v1/push"
case "$body" in
*'"generation":2'*) echo "shard-smoke: OK push (composite generation 1 -> 2)" ;;
*) fail "push response missing generation 2: $body" ;;
esac

# Replay is out of order at the coordinator: 409.
code="$(curl -s -o /dev/null -w '%{http_code}' -X POST "$CO/v1/push" \
	-d '{"interval":7,"docs":[{"id":900003,"keywords":["x"]}]}')"
[ "$code" = 409 ] || fail "replayed push returned $code, want 409"

# Generation-keyed entry evicted, interval-scoped entry survived.
hdr="$(curl -fsS -D - -o /dev/null "$CO/v1/stable-clusters?k=3&l=2")"
case "$hdr" in
*"X-Cache: miss"*) echo "shard-smoke: OK push evicted generation-keyed entry" ;;
*) fail "post-push stable-clusters was not a miss: $hdr" ;;
esac
hdr="$(curl -fsS -D - -o /dev/null "$CO/v1/search?terms=somalia&interval=0")"
case "$hdr" in
*"X-Cache: hit"*) echo "shard-smoke: OK per-interval entry survived push" ;;
*) fail "push evicted an interval-immutable search entry: $hdr" ;;
esac

# The coordinator's /metrics scrape carries its own families — solve
# routing, per-shard labeled gather-latency histograms and mirrored
# shard gauges — alongside the serving layer's. The scattered solves
# above must show under route="scatter", and both shards must appear
# as labels with populated hop histograms.
metrics="$(curl -fsS "$CO/metrics")" || fail "GET coordinator /metrics"
scatter="$(printf '%s\n' "$metrics" | sed -n 's/^coordinator_solves_total{route="scatter"} //p')"
[ -n "$scatter" ] && [ "$scatter" -ge 1 ] || fail "coordinator_solves_total{route=scatter} = '$scatter', want >= 1"
# The push above went to the tail shard only: shard 0 is still at
# generation 1, shard 1 advanced to 2.
for sh in 0 1; do
	gen="$(printf '%s\n' "$metrics" | sed -n "s/^shard_generation{shard=\"$sh\"} //p")"
	want=$((sh + 1))
	[ "$gen" = "$want" ] || fail "shard_generation{shard=$sh} = '$gen', want $want"
	hops="$(printf '%s\n' "$metrics" | sed -n "s/^coordinator_shard_gather_duration_seconds_count{shard=\"$sh\",method=\"solve\"} //p")"
	[ -n "$hops" ] && [ "$hops" -ge 1 ] || fail "no solve hops recorded for shard $sh"
done
echo "shard-smoke: OK coordinator /metrics (per-shard labels, scatter accounting)"

# A request id handed to the coordinator reaches the shard servers'
# access logs — one id correlates the whole fan-out.
curl -fsS -H 'X-Request-ID: smoke-trace-1' "$CO/v1/timeseries?keyword=storm" >/dev/null \
	|| fail "traced timeseries"
sleep 0.2
grep -q 'smoke-trace-1' "$LOG0" || grep -q 'smoke-trace-1' "$LOG1" \
	|| fail "request id never reached a shard access log"
echo "shard-smoke: OK request id propagated to shards"

# The pushed interval is queryable through the coordinator and landed
# on the tail shard (its own width grew to 4).
body="$(curl -fsS "$CO/v1/search?terms=somalia&interval=7")" || fail "search pushed interval"
case "$body" in
*'"generation":2'*) echo "shard-smoke: OK pushed interval queryable at generation 2" ;;
*) fail "pushed-interval search missing generation 2: $body" ;;
esac
meta="$(curl -fsS "$S1/v1/meta")" || fail "GET shard 1 meta"
case "$meta" in
*'"intervals":4'*) echo "shard-smoke: OK push routed to tail shard" ;;
*) fail "tail shard did not grow: $meta" ;;
esac

# All five drain cleanly on SIGTERM.
for pid in "$PID2" "$PID4" "$PID0" "$PID1" "$PID3"; do
	kill -TERM "$pid"
	EXIT=0
	wait "$pid" || EXIT=$?
	[ "$EXIT" = 0 ] || fail "pid $pid exited $EXIT after SIGTERM"
done
grep -q 'drained; exiting' "$LOG2" || fail "no drain message in coordinator log"
grep -q 'drained; exiting' "$LOG4" || fail "no drain message in in-process coordinator log"
trap 'rm -f "$LOG0" "$LOG1" "$LOG2" "$LOG3" "$LOG4"; rm -rf "$BINDIR"' EXIT
echo "shard-smoke: PASS (clean drain)"
