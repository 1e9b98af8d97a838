#!/usr/bin/env bash
# Service smoke run: drive the olp_serviced daemon through its whole
# robustness story, end to end, over the real JSONL stdin/stdout transport:
#
#   1. crash     start with a snapshot path, warm the cache with an optimize
#                job, checkpoint, then kill -9 mid-load — the snapshot on
#                disk must survive the crash;
#   2. warm      restart from that snapshot, rerun the same job, SIGTERM
#                while it is in flight — the drain must finish the job,
#                exit 0, and the final stats must prove a warm start
#                (snapshot_loaded, nonzero restored_hits);
#   3. corrupt   flip a byte in the snapshot and restart — the daemon must
#                fall back to a cold start (snapshot_loaded:false) and keep
#                serving instead of aborting;
#   4. tcp       serve FOUR concurrent TCP clients through the poll-based
#                transport, survive a fifth client killed mid-frame, apply a
#                SIGHUP config reload (new queue bound from the
#                OLP_SERVICE_CONFIG file) WITHOUT dropping the open
#                connections, and prove it all from the transport_stats line;
#   5. journal   accept keyed work into the durable request journal, kill -9
#                with jobs still queued, restart on the same journal — every
#                accepted job must replay exactly once (zero lost), and
#                resubmitting the same idempotency keys must be answered from
#                the journal without re-running (zero duplicated).
#
# Usage: OLP_SERVICE_BIN=<path-to-olp_serviced> tests/run_service_smoke.sh
# (ctest sets OLP_SERVICE_BIN; a default build-tree location is the fallback.)
set -euo pipefail

script_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
src_dir="$(dirname "${script_dir}")"
bin="${OLP_SERVICE_BIN:-${src_dir}/build/examples/olp_serviced}"

if [[ ! -x "${bin}" ]]; then
  echo "service smoke: daemon binary not found at ${bin}" >&2
  exit 1
fi

tmp="$(mktemp -d)"
trap 'rm -rf "${tmp}"' EXIT
snapshot="${tmp}/cache.snap"

# Polls for a fixed string in a growing output file. The daemon flushes one
# JSON event per line, so a plain fixed-string grep is race-free.
wait_for() {
  local needle=$1 file=$2 timeout_s=${3:-120}
  local deadline=$((SECONDS + timeout_s))
  until grep -qF -- "${needle}" "${file}" 2>/dev/null; do
    if ((SECONDS >= deadline)); then
      echo "service smoke: timed out waiting for ${needle} in ${file}" >&2
      [[ -f "${file}" ]] && cat "${file}" >&2
      return 1
    fi
    sleep 0.1
  done
}

# ---- phase 1: warm, checkpoint, crash --------------------------------------
mkfifo "${tmp}/in1"
OLP_SERVICE_SNAPSHOT="${snapshot}" OLP_SERVICE_SNAPSHOT_EVERY=0 \
  "${bin}" < "${tmp}/in1" > "${tmp}/out1" 2> "${tmp}/err1" &
pid=$!
exec 3> "${tmp}/in1"  # hold the write end open across multiple requests

echo '{"op":"ping"}' >&3
wait_for '"event":"pong"' "${tmp}/out1" 30
echo '{"op":"submit","id":"seed","client":"smoke","circuit":"vco","mode":"optimize","seed":11}' >&3
wait_for '{"id":"seed","event":"done"' "${tmp}/out1" 600
echo '{"op":"snapshot"}' >&3
wait_for '"event":"snapshot","ok":true' "${tmp}/out1" 60

# A second job goes in flight, then the process dies hard mid-load.
echo '{"op":"submit","id":"victim","client":"smoke","circuit":"strongarm","mode":"optimize","seed":12}' >&3
wait_for '{"id":"victim","event":"accepted"' "${tmp}/out1" 30
kill -9 "${pid}"
wait "${pid}" 2>/dev/null || true
exec 3>&-

[[ -s "${snapshot}" ]] || {
  echo "service smoke: snapshot missing or empty after kill -9" >&2
  exit 1
}
echo "service smoke: snapshot survived kill -9 mid-load"

# ---- phase 2: warm restart, SIGTERM drains the in-flight job ---------------
mkfifo "${tmp}/in2"
OLP_SERVICE_SNAPSHOT="${snapshot}" OLP_SERVICE_SNAPSHOT_EVERY=0 \
  "${bin}" < "${tmp}/in2" > "${tmp}/out2" 2> "${tmp}/err2" &
pid=$!
exec 3> "${tmp}/in2"

echo '{"op":"submit","id":"warm","client":"smoke","circuit":"vco","mode":"optimize","seed":11}' >&3
wait_for '{"id":"warm","event":"accepted"' "${tmp}/out2" 30
kill -TERM "${pid}"
rc=0
wait "${pid}" || rc=$?
exec 3>&-
if [[ "${rc}" -ne 0 ]]; then
  echo "service smoke: daemon exited ${rc} on SIGTERM drain" >&2
  cat "${tmp}/err2" >&2
  exit 1
fi
grep -qF '{"id":"warm","event":"done"' "${tmp}/out2" || {
  echo "service smoke: SIGTERM drain dropped the in-flight job" >&2
  cat "${tmp}/out2" >&2
  exit 1
}
echo "service smoke: SIGTERM drain finished the in-flight job and exited 0"

# The daemon prints final stats JSON on stderr; they must prove a warm start.
grep -qF '"snapshot_loaded":true' "${tmp}/err2" || {
  echo "service smoke: restart did not load the snapshot" >&2
  cat "${tmp}/err2" >&2
  exit 1
}
restored="$(sed -n 's/.*"restored_hits":\([0-9][0-9]*\).*/\1/p' "${tmp}/err2")"
if [[ -z "${restored}" || "${restored}" -eq 0 ]]; then
  echo "service smoke: warm restart served zero restored-entry hits" >&2
  cat "${tmp}/err2" >&2
  exit 1
fi
echo "service smoke: warm restart served ${restored} hits from restored entries"

# ---- phase 3: corrupt snapshot falls back to a cold start ------------------
printf 'X' | dd of="${snapshot}" bs=1 seek=12 conv=notrunc 2>/dev/null

mkfifo "${tmp}/in3"
OLP_SERVICE_SNAPSHOT="${snapshot}" OLP_SERVICE_SNAPSHOT_EVERY=0 \
  "${bin}" < "${tmp}/in3" > "${tmp}/out3" 2> "${tmp}/err3" &
pid=$!
exec 3> "${tmp}/in3"

echo '{"op":"stats"}' >&3
wait_for '"event":"stats"' "${tmp}/out3" 30
grep -qF '"snapshot_loaded":false' "${tmp}/out3" || {
  echo "service smoke: corrupt snapshot was not rejected" >&2
  cat "${tmp}/out3" >&2
  exit 1
}
echo '{"op":"ping"}' >&3
wait_for '"event":"pong"' "${tmp}/out3" 30
echo '{"op":"shutdown"}' >&3
wait_for '"event":"drained"' "${tmp}/out3" 60
rc=0
wait "${pid}" || rc=$?
exec 3>&-
if [[ "${rc}" -ne 0 ]]; then
  echo "service smoke: daemon exited ${rc} after a corrupt snapshot" >&2
  cat "${tmp}/err3" >&2
  exit 1
fi
echo "service smoke: corrupt snapshot fell back to a cold start cleanly"

# ---- phase 4: concurrent TCP clients, mid-frame kill, SIGHUP reload --------
# Reads lines from a connected TCP fd until a fixed string shows up. Every
# line read is appended to a log so a timeout dumps the whole exchange.
tcp_expect() {
  local fd=$1 needle=$2 timeout_s=${3:-60} line
  local deadline=$((SECONDS + timeout_s))
  while ((SECONDS < deadline)); do
    if read -r -t 1 -u "${fd}" line; then
      printf '%s\n' "${line}" >> "${tmp}/tcp_log"
      [[ "${line}" == *"${needle}"* ]] && return 0
    fi
  done
  echo "service smoke: timed out waiting for ${needle} on tcp fd ${fd}" >&2
  [[ -f "${tmp}/tcp_log" ]] && cat "${tmp}/tcp_log" >&2
  return 1
}

reload_conf="${tmp}/reload.conf"
mkfifo "${tmp}/in4"
OLP_SERVICE_TCP=0 OLP_SERVICE_WORKERS=2 OLP_SERVICE_SNAPSHOT_EVERY=0 \
  OLP_SERVICE_CONFIG="${reload_conf}" \
  "${bin}" < "${tmp}/in4" > "${tmp}/out4" 2> "${tmp}/err4" &
pid=$!
exec 3> "${tmp}/in4"

wait_for '"event":"listening","transport":"tcp"' "${tmp}/out4" 30
port="$(sed -n 's/.*"transport":"tcp","port":\([0-9][0-9]*\).*/\1/p' "${tmp}/out4")"
if [[ -z "${port}" ]]; then
  echo "service smoke: daemon did not announce a TCP port" >&2
  cat "${tmp}/out4" >&2
  exit 1
fi

# Four clients connect and stay open simultaneously; each gets its own pong.
exec 4<>"/dev/tcp/127.0.0.1/${port}"
exec 5<>"/dev/tcp/127.0.0.1/${port}"
exec 6<>"/dev/tcp/127.0.0.1/${port}"
exec 7<>"/dev/tcp/127.0.0.1/${port}"
for fd in 4 5 6 7; do
  echo '{"op":"ping"}' >&${fd}
  tcp_expect "${fd}" '"event":"pong"' 30
done
echo "service smoke: 4 concurrent TCP clients served"

# A fifth client dies mid-frame: half a line, no newline, hard close. The
# torn frame must be discarded, never dispatched as a request.
exec 8<>"/dev/tcp/127.0.0.1/${port}"
printf '{"op":"sub' >&8
exec 8>&-
exec 8<&-

# SIGHUP reload: a new queue bound lands in the config file, the signal
# applies it, and the ALREADY-OPEN connections must keep working. The empty
# reload verb echoes the effective config, proving the bound took effect.
printf 'OLP_SERVICE_QUEUE_DEPTH=33\n' > "${reload_conf}"
kill -HUP "${pid}"
wait_for '"event":"reloaded"' "${tmp}/err4" 30
echo '{"op":"reload"}' >&4
tcp_expect 4 '"queue_depth":33' 30
echo "service smoke: SIGHUP applied queue_depth=33 without dropping connections"

# The veteran connection still does real work after the reload.
echo '{"op":"submit","id":"t1","client":"tcp-smoke","circuit":"vco","mode":"conventional","key":"tcp-key"}' >&4
tcp_expect 4 '{"id":"t1","event":"done"' 120

for fd in 4 5 6 7; do
  eval "exec ${fd}>&-"
  eval "exec ${fd}<&-"
done
echo '{"op":"drain"}' >&3
wait_for '"event":"drained"' "${tmp}/out4" 120
rc=0
wait "${pid}" || rc=$?
exec 3>&-
if [[ "${rc}" -ne 0 ]]; then
  echo "service smoke: daemon exited ${rc} after the TCP phase" >&2
  cat "${tmp}/err4" >&2
  exit 1
fi

grep -qF '"event":"transport_stats"' "${tmp}/err4" || {
  echo "service smoke: no transport_stats line on stderr" >&2
  cat "${tmp}/err4" >&2
  exit 1
}
max_active="$(sed -n 's/.*"max_active":\([0-9][0-9]*\).*/\1/p' "${tmp}/err4")"
torn="$(sed -n 's/.*"torn_frames_discarded":\([0-9][0-9]*\).*/\1/p' "${tmp}/err4")"
if [[ -z "${max_active}" || "${max_active}" -lt 4 ]]; then
  echo "service smoke: expected >=4 concurrent connections, saw '${max_active}'" >&2
  cat "${tmp}/err4" >&2
  exit 1
fi
if [[ -z "${torn}" || "${torn}" -lt 1 ]]; then
  echo "service smoke: mid-frame kill did not register a torn frame" >&2
  cat "${tmp}/err4" >&2
  exit 1
fi
echo "service smoke: transport peaked at ${max_active} connections, discarded ${torn} torn frame(s)"

# ---- phase 5: kill -9 with queued keyed work; journal replays, dedups ------
journal="${tmp}/requests.journal"
mkfifo "${tmp}/in5"
OLP_SERVICE_JOURNAL="${journal}" OLP_SERVICE_WORKERS=1 \
  OLP_SERVICE_SNAPSHOT_EVERY=0 \
  "${bin}" < "${tmp}/in5" > "${tmp}/out5" 2> "${tmp}/err5" &
pid=$!
exec 3> "${tmp}/in5"

# Three exhaustive-oracle jobs hold the single worker (about 120 ms
# together on a 4-core host; one client's queue is FIFO, and each circuit
# starts with a cold cache); three keyed jobs queue behind them. All six go
# in one write, and the kill follows the last accept within a 10 ms poll,
# so the keyed jobs are still queued when it lands. Every accept is
# journaled before the event is emitted, so once the accepts are visible
# the work is durable — kill -9 cannot lose it.
{
  for c in vco ota5t strongarm; do
    echo "{\"op\":\"submit\",\"id\":\"hold-${c}\",\"client\":\"smoke\",\"circuit\":\"${c}\",\"mode\":\"manual_oracle\",\"seed\":21,\"deadline_ms\":4000,\"key\":\"hold-${c}\"}"
  done
  for k in 1 2 3; do
    echo "{\"op\":\"submit\",\"id\":\"r${k}\",\"client\":\"smoke\",\"circuit\":\"vco\",\"mode\":\"conventional\",\"key\":\"key-${k}\"}"
  done
} >&3
deadline=$((SECONDS + 30))
until grep -qF '{"id":"r3","event":"accepted"' "${tmp}/out5" 2>/dev/null; do
  if ((SECONDS >= deadline)); then
    echo "service smoke: timed out waiting for the r3 accept" >&2
    cat "${tmp}/out5" >&2
    exit 1
  fi
  sleep 0.01
done
kill -9 "${pid}"
wait "${pid}" 2>/dev/null || true
exec 3>&-

[[ -s "${journal}" ]] || {
  echo "service smoke: journal missing or empty after kill -9" >&2
  exit 1
}
echo "service smoke: journal survived kill -9 with keyed work queued"

mkfifo "${tmp}/in6"
OLP_SERVICE_JOURNAL="${journal}" OLP_SERVICE_WORKERS=1 \
  OLP_SERVICE_SNAPSHOT_EVERY=0 \
  "${bin}" < "${tmp}/in6" > "${tmp}/out6" 2> "${tmp}/err6" &
pid=$!
exec 3> "${tmp}/in6"

# Replay runs at-least-once: poll stats until every replayed entry has
# completed and nothing is left pending in the journal.
deadline=$((SECONDS + 300))
until grep -qF '"pending":0' "${tmp}/out6" 2>/dev/null; do
  if ((SECONDS >= deadline)); then
    echo "service smoke: journal replay did not finish" >&2
    cat "${tmp}/out6" >&2
    exit 1
  fi
  echo '{"op":"stats"}' >&3
  sleep 0.5
done
replayed="$(sed -n 's/.*"replayed":\([0-9][0-9]*\).*/\1/p' "${tmp}/out6" | tail -n1)"
if [[ -z "${replayed}" || "${replayed}" -lt 3 ]]; then
  echo "service smoke: expected >=3 replayed journal entries, saw '${replayed}'" >&2
  cat "${tmp}/out6" >&2
  exit 1
fi
echo "service smoke: restart replayed ${replayed} journaled job(s)"

# Resubmitting the same idempotency keys must answer from the journal
# record — a duplicate event with the recorded status, not a re-run.
for k in 1 2 3; do
  echo "{\"op\":\"submit\",\"id\":\"dup${k}\",\"client\":\"smoke\",\"circuit\":\"vco\",\"mode\":\"conventional\",\"key\":\"key-${k}\"}" >&3
  wait_for "{\"id\":\"dup${k}\",\"event\":\"duplicate\",\"key\":\"key-${k}\"" "${tmp}/out6" 30
done

echo '{"op":"drain"}' >&3
wait_for '"event":"drained"' "${tmp}/out6" 120
rc=0
wait "${pid}" || rc=$?
exec 3>&-
if [[ "${rc}" -ne 0 ]]; then
  echo "service smoke: daemon exited ${rc} after journal replay" >&2
  cat "${tmp}/err6" >&2
  exit 1
fi

# Zero lost, zero duplicated: everything completed this run came from the
# replay (the dup resubmits were answered, not executed), so completed must
# equal replayed and the duplicate shed counter must be exactly 3.
completed="$(sed -n 's/.*"completed":\([0-9][0-9]*\).*/\1/p' "${tmp}/err6" | tail -n1)"
if [[ -z "${completed}" || "${completed}" != "${replayed}" ]]; then
  echo "service smoke: completed (${completed}) != replayed (${replayed}) — lost or double-ran work" >&2
  cat "${tmp}/err6" >&2
  exit 1
fi
grep -qF '"duplicate":3' "${tmp}/err6" || {
  echo "service smoke: keyed resubmits were not all deduplicated" >&2
  cat "${tmp}/err6" >&2
  exit 1
}
echo "service smoke: zero lost, zero duplicated — ${completed} completed, 3 keys deduped"

echo "service smoke run passed"
