# Shared skeleton of the CI smoke jobs (.github/workflows/ci.yml): boot
# daemons on loopback ports, wait for /healthz, submit sweeps, poll them
# to a status and byte-compare the served CSV. A job step sources it
# after `go build -o bin/ ./cmd/...`:
#
#	source .github/smoke.sh
#	boot serve 18347 ./bin/allarm-serve
#	ID=$(submit 18347 "$SWEEP")
#	wait_status 18347 "$ID" done
#	same_csv 18347 "$ID" direct.csv
#	stop serve
#
# On exit — success or failure — daemons still running are killed and
# every daemon log is printed.
set -eux

declare -A PID
LOGS=()

smoke_exit() {
  local status=$?
  set +e
  for pid in "${PID[@]}"; do kill -9 "$pid" 2>/dev/null; done
  for log in "${LOGS[@]}"; do echo "== $log"; cat "$log"; done
  exit "$status"
}
trap smoke_exit EXIT

# boot NAME PORT BINARY [FLAGS...]: start BINARY on 127.0.0.1:PORT in the
# background, logging to NAME.log, and wait until its /healthz answers.
boot() {
  local name=$1 port=$2 bin=$3
  shift 3
  "$bin" -addr "127.0.0.1:$port" "$@" >"$name.log" 2>&1 &
  PID[$name]=$!
  LOGS+=("$name.log")
  for _ in $(seq 1 50); do
    curl -sf "http://127.0.0.1:$port/healthz" && return
    sleep 0.2
  done
  return 1
}

# stop NAME...: SIGTERM the daemons and require clean exits.
stop() {
  for name in "$@"; do
    kill -TERM "${PID[$name]}"
    wait "${PID[$name]}"
    unset "PID[$name]"
  done
}

# crash NAME: SIGKILL a daemon, no grace at all.
crash() {
  kill -9 "${PID[$1]}"
  wait "${PID[$1]}" || true
  unset "PID[$1]"
}

# submit PORT BODY [CURL_ARGS...]: POST a sweep, print its id.
submit() {
  local port=$1 body=$2
  shift 2
  curl -sf "$@" "http://127.0.0.1:$port/v1/sweeps" -d "$body" | jq -r .id
}

# wait_status PORT ID WANT [TRIES]: poll the sweep every 0.2 s until its
# status is WANT; fail after TRIES polls (default 300).
wait_status() {
  local status
  for _ in $(seq 1 "${4:-300}"); do
    status=$(curl -sf "http://127.0.0.1:$1/v1/sweeps/$2" | jq -r .status)
    [ "$status" = "$3" ] && return
    sleep 0.2
  done
  return 1
}

# same_csv PORT ID WANT_FILE: the sweep's served CSV must equal WANT_FILE
# byte for byte.
same_csv() {
  curl -sf "http://127.0.0.1:$1/v1/sweeps/$2/results?format=csv" >"served-$2.csv"
  diff "$3" "served-$2.csv"
}

# jobs_run PORT...: simulations actually run, summed over the daemons.
jobs_run() {
  local n=0 port
  for port in "$@"; do
    n=$((n + $(curl -sf "http://127.0.0.1:$port/metrics" | jq .jobs_run)))
  done
  echo "$n"
}

# direct_pairs ACCESSES BENCH...: allarm-sim -pair CSVs (baseline, then
# allarm) concatenated under one header — what a benchmark-major sweep
# over both policies renders.
direct_pairs() {
  local accesses=$1 first=$2 b
  shift 2
  ./bin/allarm-sim -bench "$first" -policy allarm -pair -accesses "$accesses" -csv
  for b in "$@"; do
    ./bin/allarm-sim -bench "$b" -policy allarm -pair -accesses "$accesses" -csv | tail -n +2
  done
}
