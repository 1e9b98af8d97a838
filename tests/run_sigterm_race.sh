#!/usr/bin/env bash
# SIGTERM race regression: a SIGTERM that reaches olp_serviced right after
# it has answered a request — between the handled line and the next read
# of stdin — must still drain the daemon. Each of 50 rounds starts the
# daemon with stdin held open, reads one pong, sends SIGTERM at once and
# requires the process to exit 0 within 10 s. stdin stays open until then,
# so an end-of-file cannot stand in for the lost signal.
#
# Usage: OLP_SERVICE_BIN=<path-to-olp_serviced> tests/run_sigterm_race.sh
set -euo pipefail

script_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
src_dir="$(dirname "${script_dir}")"
bin="${OLP_SERVICE_BIN:-${src_dir}/build/examples/olp_serviced}"
rounds="${ROUNDS:-50}"

if [[ ! -x "${bin}" ]]; then
  echo "sigterm race: daemon binary not found at ${bin}" >&2
  exit 1
fi

tmp="$(mktemp -d)"
pid=""
cleanup() {
  [[ -n "${pid}" ]] && kill -9 "${pid}" 2>/dev/null || true
  rm -rf "${tmp}"
}
trap cleanup EXIT

for ((round = 1; round <= rounds; ++round)); do
  rm -f "${tmp}/in" "${tmp}/out"
  mkfifo "${tmp}/in" "${tmp}/out"
  OLP_SERVICE_WORKERS=1 "${bin}" < "${tmp}/in" > "${tmp}/out" 2> "${tmp}/err" &
  pid=$!
  exec 3> "${tmp}/in"
  exec 4< "${tmp}/out"
  echo '{"op":"ping"}' >&3
  line=""
  if ! read -r -t 10 -u 4 line || [[ "${line}" != *'"pong"'* ]]; then
    echo "sigterm race: round ${round}: no pong (got '${line}')" >&2
    cat "${tmp}/err" >&2
    exit 1
  fi
  kill -TERM "${pid}"
  deadline=$((SECONDS + 10))
  while kill -0 "${pid}" 2>/dev/null; do
    if ((SECONDS >= deadline)); then
      echo "sigterm race: round ${round}: daemon ignored SIGTERM for 10 s" >&2
      exit 1
    fi
    sleep 0.01
  done
  rc=0
  wait "${pid}" || rc=$?
  pid=""
  exec 3>&- 4<&-
  if ((rc != 0)); then
    echo "sigterm race: round ${round}: daemon exited ${rc}" >&2
    cat "${tmp}/err" >&2
    exit 1
  fi
done
echo "sigterm race: ${rounds} daemons drained on SIGTERM right after a response"
