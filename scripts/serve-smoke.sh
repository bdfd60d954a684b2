#!/bin/sh
# serve-smoke: boot blogserved on the synthetic demo corpus, curl every
# endpoint, check the cache and admission headers, push an interval
# through /v1/push (asserting the generation bump and exact cache
# invalidation), and assert a clean SIGTERM drain. `make serve-smoke` runs this; CI's examples job runs
# that target, so the serving layer cannot drift from its routes, its
# readiness contract, or its shutdown behavior.
set -eu

PORT="${SERVE_SMOKE_PORT:-18080}"
BASE="http://127.0.0.1:$PORT"
LOG="$(mktemp)"
BINDIR="$(mktemp -d)"
BIN="$BINDIR/blogserved"

fail() {
	echo "serve-smoke: FAIL: $1" >&2
	echo "--- server log ---" >&2
	cat "$LOG" >&2
	exit 1
}

echo "serve-smoke: building blogserved"
go build -o "$BIN" ./cmd/blogserved

"$BIN" -demo -addr "127.0.0.1:$PORT" 2>"$LOG" &
PID=$!
trap 'kill "$PID" 2>/dev/null || true; rm -f "$LOG"; rm -rf "$BINDIR"' EXIT

# /healthz must answer while the corpus may still be loading; /readyz
# flips to 200 when the session attaches.
for i in $(seq 1 50); do
	if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then break; fi
	[ "$i" = 50 ] && fail "healthz never came up"
	sleep 0.2
done
for i in $(seq 1 100); do
	if curl -fsS "$BASE/readyz" >/dev/null 2>&1; then break; fi
	[ "$i" = 100 ] && fail "readyz never became ready"
	sleep 0.2
done
echo "serve-smoke: ready"

# Every query endpoint answers 200 with a JSON body.
check() {
	path="$1"; needle="$2"
	body="$(curl -fsS "$BASE$path")" || fail "GET $path"
	case "$body" in
	*"$needle"*) ;;
	*) fail "GET $path: body missing $needle: $body" ;;
	esac
	echo "serve-smoke: OK $path"
}
check '/v1/stable-clusters?k=3' '"paths"'
check '/v1/stable-clusters?variant=normalized&k=3' '"paths"'
check '/v1/stable-clusters?variant=diverse&k=3&mode=prefix' '"paths"'
check '/v1/timeseries?keyword=somalia' '"counts"'
check '/v1/bursts?keyword=somalia' '"bursts"'
check '/v1/search?terms=somalia&interval=0' '"ids"'
check '/v1/refine?query=somalia&interval=0' '"keywords"'
check '/v1/correlations?keyword=somalia&interval=0&n=3' '"correlations"'
check '/debug/stats' '"engine"'

# Describe a real path: pull the first node id out of stable-clusters.
node="$(curl -fsS "$BASE/v1/stable-clusters?k=1" | sed -n 's/.*"nodes":\[\([0-9]*\).*/\1/p')"
[ -n "$node" ] || fail "could not extract a node id"
check "/v1/describe?nodes=$node" '"description"'

# The repeat of a hot query must be a cache hit.
hdr="$(curl -fsS -D - -o /dev/null "$BASE/v1/stable-clusters?k=3")"
case "$hdr" in
*"X-Cache: hit"*) echo "serve-smoke: OK cache hit" ;;
*) fail "repeated query was not a cache hit: $hdr" ;;
esac

# Bad parameters are 400, not 500.
code="$(curl -s -o /dev/null -w '%{http_code}' "$BASE/v1/stable-clusters?algorithm=astar")"
[ "$code" = 400 ] || fail "bad algorithm returned $code, want 400"

# Live ingest: push the next interval and watch the generation bump
# and the cache invalidate exactly the generation-keyed entries.
stats="$(curl -fsS "$BASE/debug/stats")"
gen="$(printf '%s' "$stats" | sed -n 's/.*"generation":\([0-9]*\).*/\1/p')"
nint="$(printf '%s' "$stats" | sed -n 's/.*"intervals":\([0-9]*\).*/\1/p')"
[ -n "$gen" ] && [ -n "$nint" ] || fail "debug/stats missing generation/intervals: $stats"
[ "$gen" -ge 1 ] || fail "pre-push generation $gen, want >= 1"

# Warm a per-interval query so we can prove pushes leave it hot.
curl -fsS "$BASE/v1/search?terms=somalia&interval=0" >/dev/null || fail "warm search"

body="$(curl -fsS -X POST "$BASE/v1/push" -H 'Content-Type: application/json' \
	-d "{\"interval\":$nint,\"label\":\"pushed\",\"docs\":[
	      {\"id\":900001,\"keywords\":[\"somalia\",\"election\"]},
	      {\"id\":900002,\"keywords\":[\"storm\",\"flood\"]}]}")" \
	|| fail "POST /v1/push"
want=$((gen + 1))
case "$body" in
*"\"generation\":$want"*) echo "serve-smoke: OK push (generation $gen -> $want)" ;;
*) fail "push response missing generation $want: $body" ;;
esac

# Replaying the same interval is a 409, and the generation holds.
code="$(curl -s -o /dev/null -w '%{http_code}' -X POST "$BASE/v1/push" \
	-d "{\"interval\":$nint,\"docs\":[{\"id\":900003,\"keywords\":[\"x\"]}]}")"
[ "$code" = 409 ] || fail "replayed push returned $code, want 409"

# The hot generation-keyed query was evicted by the push...
hdr="$(curl -fsS -D - -o /dev/null "$BASE/v1/stable-clusters?k=3")"
case "$hdr" in
*"X-Cache: miss"*) echo "serve-smoke: OK push evicted generation-keyed entry" ;;
*) fail "post-push stable-clusters was not a cache miss: $hdr" ;;
esac
# ...and re-caches under the new generation...
hdr="$(curl -fsS -D - -o /dev/null "$BASE/v1/stable-clusters?k=3")"
case "$hdr" in
*"X-Cache: hit"*) ;;
*) fail "post-push stable-clusters did not re-cache: $hdr" ;;
esac
# ...while the per-interval query stayed hot across the push.
hdr="$(curl -fsS -D - -o /dev/null "$BASE/v1/search?terms=somalia&interval=0")"
case "$hdr" in
*"X-Cache: hit"*) echo "serve-smoke: OK per-interval entry survived push" ;;
*) fail "push evicted an interval-immutable search entry: $hdr" ;;
esac

# /metrics speaks Prometheus text format and its counters agree with
# the traffic this script just generated: the timeseries route was hit
# exactly once above, and the histogram _count moves with the counter.
metrics="$(curl -fsS "$BASE/metrics")" || fail "GET /metrics"
case "$metrics" in
*'# TYPE http_requests_total counter'*) ;;
*) fail "/metrics missing http_requests_total TYPE line" ;;
esac
tscount="$(printf '%s\n' "$metrics" | sed -n 's/^http_requests_total{route="timeseries",status="200"} //p')"
[ "$tscount" = 1 ] || fail "http_requests_total{route=timeseries} = '$tscount', want 1"
hcount="$(printf '%s\n' "$metrics" | sed -n 's/^http_request_duration_seconds_count{route="timeseries"} //p')"
[ "$hcount" = 1 ] || fail "duration histogram count for timeseries = '$hcount', want 1"
hits="$(printf '%s\n' "$metrics" | sed -n 's/^cache_requests_total{state="hit"} //p')"
[ -n "$hits" ] && [ "$hits" -ge 3 ] || fail "cache hit counter '$hits', want >= 3"
# The bfs solves above left their work counters behind.
offers="$(printf '%s\n' "$metrics" | sed -n 's/^engine_solve_work_total{algorithm="bfs",counter="heap_considers"} //p')"
[ -n "$offers" ] && [ "$offers" != 0 ] || fail "engine_solve_work_total{bfs,heap_considers} = '$offers', want > 0"
echo "serve-smoke: OK /metrics (route counters match traffic)"

# Counters are monotone: another query, then the counter must have advanced.
curl -fsS "$BASE/v1/timeseries?keyword=somalia" >/dev/null || fail "second timeseries"
ts2="$(curl -fsS "$BASE/metrics" | sed -n 's/^http_requests_total{route="timeseries",status="200"} //p')"
[ "$ts2" = 2 ] || fail "timeseries counter did not advance: '$ts2', want 2"
echo "serve-smoke: OK /metrics counters advance"

# ?trace=1 returns span timings and bypasses the cache.
hdr_body="$(curl -fsS -D - "$BASE/v1/stable-clusters?k=3&trace=1")"
case "$hdr_body" in
*"X-Cache: bypass"*) ;;
*) fail "traced query did not bypass the cache" ;;
esac
case "$hdr_body" in
*'"trace":'*'"request"'*) echo "serve-smoke: OK trace block" ;;
*) fail "traced query has no trace block" ;;
esac

# The new interval is queryable and the envelope reports the new generation.
body="$(curl -fsS "$BASE/v1/search?terms=somalia&interval=$nint")" || fail "search pushed interval"
case "$body" in
*"\"generation\":$want"*) echo "serve-smoke: OK pushed interval queryable at generation $want" ;;
*) fail "pushed-interval search missing generation $want: $body" ;;
esac

# SIGTERM drains cleanly: process exits 0 and logs the drain.
kill -TERM "$PID"
EXIT=0
wait "$PID" || EXIT=$?
[ "$EXIT" = 0 ] || fail "blogserved exited $EXIT after SIGTERM"
grep -q 'drained; exiting' "$LOG" || fail "no drain message in log"
trap 'rm -f "$LOG"; rm -rf "$BINDIR"' EXIT
echo "serve-smoke: PASS (clean drain)"
