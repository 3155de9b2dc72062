#!/usr/bin/env bash
# End-to-end smoke of the smcserve HTTP front door, run by `make
# serve-smoke` (CI calls that target). Boots the server on a small
# scale factor and asserts, from outside the process:
#
#   1. /healthz goes ready and a parameterized Q6 answers 200 with the
#      same sum the serial (un-served) oracle prints for the dataset;
#   2. a server-side deadline (timeout_ms) comes back as a typed 504;
#   3. a client-abandoned request (curl --max-time) returns promptly on
#      the client and strands nothing on the server: /stats quiesces to
#      zero in-flight with balanced session/epoch/arena ledgers;
#   4. /stats carries the front-door admission counters;
#   5. /healthz answers {"ok":true} and /stats carries the Governor
#      ledger.
set -euo pipefail
cd "$(dirname "$0")/.."

SF="${SF:-0.01}"
ADDR="${ADDR:-127.0.0.1:8642}"
BIN="${BIN:-$(mktemp -d)/smcserve}"

go build -o "$BIN" ./cmd/smcserve

echo "serve-smoke: serial oracle at SF=$SF"
ORACLE="$("$BIN" -sf "$SF" -oracle q6 2>/dev/null)"
[ -n "$ORACLE" ] || { echo "serve-smoke: empty oracle"; exit 1; }

"$BIN" -sf "$SF" -addr "$ADDR" &
PID=$!
cleanup() { kill "$PID" 2>/dev/null || true; wait "$PID" 2>/dev/null || true; }
trap cleanup EXIT

echo "serve-smoke: waiting for readiness"
ready=
for _ in $(seq 1 150); do
    if curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1; then ready=1; break; fi
    kill -0 "$PID" 2>/dev/null || { echo "serve-smoke: server exited during startup"; exit 1; }
    sleep 0.2
done
[ -n "$ready" ] || { echo "serve-smoke: /healthz never went ready"; exit 1; }

echo "serve-smoke: served q6 vs oracle"
SUM=$(curl -fsS -X POST -H 'Content-Type: application/json' -d '{}' "http://$ADDR/query/q6" \
    | python3 -c 'import json,sys; print(json.load(sys.stdin)["sum"])')
if [ "$SUM" != "$ORACLE" ]; then
    echo "serve-smoke: served q6 sum $SUM != serial oracle $ORACLE"
    exit 1
fi

echo "serve-smoke: parameterized q6 (shifted date) answers 200"
curl -fsS -X POST -H 'Content-Type: application/json' -d '{"date":"1995-01-01"}' \
    "http://$ADDR/query/q6" \
    | python3 -c 'import json,sys; s=json.load(sys.stdin)["sum"]; assert "." in s, s'

echo "serve-smoke: server-side deadline is a typed 504"
CODE=$(curl -s -o /tmp/serve_smoke_504.json -w '%{http_code}' --max-time 10 \
    -X POST -H 'Content-Type: application/json' -d '{"reps":1000000}' \
    "http://$ADDR/query/q6window?timeout_ms=100")
if [ "$CODE" != "504" ]; then
    echo "serve-smoke: deadline request returned $CODE (want 504):"
    cat /tmp/serve_smoke_504.json
    exit 1
fi
python3 -c 'import json; e=json.load(open("/tmp/serve_smoke_504.json"))["error"]; assert e["code"]=="timeout", e'

echo "serve-smoke: client-abandoned request leaks nothing"
set +e
curl -sS -o /dev/null --max-time 1 \
    -X POST -H 'Content-Type: application/json' -d '{"reps":1000000}' \
    "http://$ADDR/query/q6window?timeout_ms=60000"
RC=$?
set -e
# 28 = curl gave up (operation timed out): the client walked away while
# the query was mid-scan.
if [ "$RC" != "28" ]; then
    echo "serve-smoke: expected curl exit 28 (client timeout), got $RC"
    exit 1
fi
quiesced=
for _ in $(seq 1 50); do
    if curl -fsS "http://$ADDR/stats" | python3 -c '
import json, sys
st = json.load(sys.stdin)
ok = (st["Serve"]["InFlight"] == 0
      and st["EpochPins"] == 0
      and st["SessionsLeased"] == st["SessionsReturned"]
      and all(p["Leases"] == p["Returns"] for p in st["ArenaPools"] or []))
sys.exit(0 if ok else 1)
'; then quiesced=1; break; fi
    sleep 0.1
done
[ -n "$quiesced" ] || { echo "serve-smoke: abandoned request never quiesced:"; curl -fsS "http://$ADDR/stats"; exit 1; }

echo "serve-smoke: admission counters surfaced in /stats"
curl -fsS "http://$ADDR/stats" | python3 -c '
import json, sys
sv = json.load(sys.stdin)["Serve"]
assert sv["Requests"] >= 4 and sv["Admitted"] >= 4, sv
assert sv["Canceled"] >= 2, sv  # the 504 and the abandoned client
'

echo "serve-smoke: /healthz reports ok"
curl -fsS "http://$ADDR/healthz" | python3 -c '
import json, sys
hz = json.load(sys.stdin)
assert hz["ok"] is True, hz
'

echo "serve-smoke: governor ledger surfaced in /stats"
curl -fsS "http://$ADDR/stats" | python3 -c '
import json, sys
gv = json.load(sys.stdin)["Governor"]
# Governed total = heap + retained arenas + synopses; each part must be
# accounted and the sum must hold exactly.
assert gv["GovernedUsed"] == gv["HeapUsed"] + gv["ArenaRetained"] + gv["SynopsisBytes"], gv
assert gv["GovernedUsed"] > 0, gv
'

echo "serve-smoke: ok"
