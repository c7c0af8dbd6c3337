#!/bin/sh
# serve_smoke.sh exercises the query service end to end: it lints the
# server package and its command, builds the rdfserver binary, starts a
# server over a self-generated LUBM(1) dataset on an ephemeral port
# (parsed from the "rdfserver listening on" line), then through real
# HTTP with curl: answers one LUBM query (HTTP 200 and at least one
# binding), adds and removes a noise triple through POST /update, reads
# GET /statz, and checks SIGTERM drains the server cleanly.
# scripts/check.sh runs this after the test suite.
set -eu

cd "$(dirname "$0")/.."

echo "==> lint: server and its command"
go run ./cmd/lint ./internal/server ./cmd/rdfserver

echo "==> build rdfserver"
bin="$(mktemp -d)"
srvpid=""
trap '[ -n "$srvpid" ] && kill "$srvpid" 2>/dev/null; rm -rf "$bin"' EXIT
go build -o "$bin/rdfserver" ./cmd/rdfserver

echo "==> start rdfserver (LUBM(1), ephemeral port)"
"$bin/rdfserver" -lubm 1 -addr 127.0.0.1:0 >"$bin/serve.out" 2>"$bin/serve.err" &
srvpid=$!
addr=""
i=0
while [ $i -lt 100 ]; do
    addr="$(sed -n 's/^rdfserver listening on //p' "$bin/serve.out")"
    [ -n "$addr" ] && break
    if ! kill -0 "$srvpid" 2>/dev/null; then
        echo "serve_smoke: rdfserver exited before announcing its port" >&2
        cat "$bin/serve.err" >&2
        exit 1
    fi
    sleep 0.1
    i=$((i + 1))
done
if [ -z "$addr" ]; then
    echo "serve_smoke: rdfserver never announced its port" >&2
    cat "$bin/serve.err" >&2
    exit 1
fi

base="http://$addr"
# post PATH BODY: POST BODY to PATH, fail unless HTTP 200, and print the
# response body.
post() {
    code="$(curl -s -o "$bin/resp" -w '%{http_code}' -X POST "$base$1" --data-binary "$2")"
    if [ "$code" != 200 ]; then
        echo "serve_smoke: POST $1 answered HTTP $code" >&2
        cat "$bin/resp" >&2
        exit 1
    fi
    cat "$bin/resp"
}

echo "==> POST /query (LUBM, at least one binding)"
q='{"query":"PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#> SELECT ?x WHERE { ?x rdf:type ub:Student . }"}'
if ! post /query "$q" | grep -q '"rows":\[\['; then
    echo "serve_smoke: the query answered no binding" >&2
    exit 1
fi

echo "==> POST /update (add, then remove, a noise triple)"
noise='<http://serve-smoke.invalid/s> <http://serve-smoke.invalid/noise> <http://serve-smoke.invalid/o> .'
post '/update?op=add' "$noise" | grep -q '"added":1' || {
    echo "serve_smoke: the noise triple was not added" >&2
    exit 1
}
post '/update?op=remove' "$noise" | grep -q '"removed":1' || {
    echo "serve_smoke: the noise triple was not removed" >&2
    exit 1
}

echo "==> GET /statz"
curl -sf "$base/statz"
echo

echo "==> SIGTERM drains the server"
kill -TERM "$srvpid"
wait "$srvpid"
srvpid=""

echo "serve smoke passed."
