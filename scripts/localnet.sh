#!/usr/bin/env bash
# localnet.sh — spin up an n-process gossip cluster on the loopback and
# wait for every node to decode.
#
#   scripts/localnet.sh                 # 16 processes, k=32
#   scripts/localnet.sh -n 256 -k 64    # the ISSUE's scale target
#   scripts/localnet.sh -n 8 -m stream -g 8
#   HOSTILE=1 scripts/localnet.sh       # every node mutates its outgoing packets
#
# HOSTILE=1 passes -mutate "$MUTATE" (default: every op at low rates)
# to every node, so each process injects duplicated, stale-replayed,
# truncated and bit-flipped datagrams into the real sockets; the run
# must still decode everywhere, and the script then asserts the drop
# summary actually shows the mutated kinds being rejected (truncated
# plus the version/type/malformed parse buckets non-zero).
#
# Each node is one cmd/node OS process bound to 127.0.0.1:(base+id);
# node 0 is the bootstrap peer, everyone else learns the membership
# from it over the announce exchange. The script waits until every
# process prints its DONE line (all of them must say ok=true), then
# aggregates the per-node metric files into a packets/bits summary.
# Logs and metrics land under $OUTDIR (default ./localnet-logs), one
# .log and one .metrics file per node — CI uploads them as artifacts.
#
# Exit status: 0 iff all n nodes decoded and verified within -t.
set -euo pipefail
cd "$(dirname "$0")/.."

N=16
K=32
PAYLOAD=128
MODE=cluster
GENERATIONS=8
SEED=1
BASEPORT=17000
TIMEOUT=120s
INTERVAL=""
OUTDIR=${OUTDIR:-localnet-logs}
HOSTILE=${HOSTILE:-0}
MUTATE=${MUTATE:-dup:0.05,stale:0.05,trunc:0.03,flip:0.02,xgen:0.03}

usage() { grep '^#' "$0" | sed 's/^# \{0,1\}//'; exit 1; }
while getopts "n:k:p:m:g:s:b:t:i:o:h" opt; do
  case $opt in
    n) N=$OPTARG ;;
    k) K=$OPTARG ;;
    p) PAYLOAD=$OPTARG ;;
    m) MODE=$OPTARG ;;
    g) GENERATIONS=$OPTARG ;;
    s) SEED=$OPTARG ;;
    b) BASEPORT=$OPTARG ;;
    t) TIMEOUT=$OPTARG ;;
    i) INTERVAL=$OPTARG ;;
    o) OUTDIR=$OPTARG ;;
    *) usage ;;
  esac
done

# Pace emissions with the process count: hundreds of processes on few
# cores need a coarser tick or the schedulers thrash. ~50us per node,
# floored at 2ms, gives ~50ms at n=1024.
if [[ -z $INTERVAL ]]; then
  INTERVAL=$(( N * 50 > 2000 ? N * 50 : 2000 ))us
fi

# Finished nodes keep gossiping for LINGER so laggards can still
# decode. Large oversubscribed clusters bootstrap over a wide spread;
# a node that decodes early and exits after 5s would strand whoever
# joined last, so linger scales with n.
LINGER=$(( N > 256 ? 60 : 5 ))s

echo "localnet: n=$N k=$K mode=$MODE interval=$INTERVAL outdir=$OUTDIR"
if ((HOSTILE)); then echo "localnet: HOSTILE mode, mutate=$MUTATE"; fi
mkdir -p "$OUTDIR"
go build -o "$OUTDIR/node.bin" ./cmd/node
rm -f "$OUTDIR"/node*.log "$OUTDIR"/node*.metrics

PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
}
trap cleanup EXIT

BOOT="127.0.0.1:$BASEPORT"
for ((id = 0; id < N; id++)); do
  args=(
    -id "$id" -n "$N" -addr "127.0.0.1:$((BASEPORT + id))"
    -mode "$MODE" -k "$K" -payload "$PAYLOAD" -seed "$SEED"
    -generations "$GENERATIONS"
    -interval "$INTERVAL" -timeout "$TIMEOUT" -linger "$LINGER"
    -metrics "$OUTDIR/node$id.metrics"
  )
  if ((id > 0)); then args+=(-bootstrap "$BOOT"); fi
  if ((HOSTILE)); then args+=(-mutate "$MUTATE"); fi
  # Node 0 answers every joiner's bootstrap ping; on an oversubscribed
  # host a fair 1/n CPU share can't absorb that, so it runs at higher
  # priority (best-effort: nice still launches if it can't renice).
  prio=()
  if ((id == 0)) && command -v nice >/dev/null; then prio=(nice -n -10); fi
  GOMAXPROCS=1 "${prio[@]}" "$OUTDIR/node.bin" "${args[@]}" >"$OUTDIR/node$id.log" 2>&1 &
  PIDS+=($!)
done

start=$SECONDS
fail=0
for ((id = 0; id < N; id++)); do
  if ! wait "${PIDS[$id]}"; then fail=1; fi
done
elapsed=$((SECONDS - start))

done_ok=$(grep -hc '^DONE .*ok=true' "$OUTDIR"/node*.log 2>/dev/null | awk '{s+=$1} END {print s+0}')
echo "localnet: $done_ok/$N nodes decoded in ${elapsed}s"

awk -F= '
  /^packets_out=/ {po+=$2} /^packets_in=/ {pi+=$2}
  /^bits_out=/ {bo+=$2} /^udp_datagrams=/ {dg+=$2}
  # Every socket drop bucket the files carry, whatever udpnet.BucketNames
  # holds today: a bucket added to that table shows up here unasked.
  /^udp_drop_|^udp_write_errors=/ {
    if (!($1 in drop)) order[++buckets] = $1
    drop[$1] += $2
  }
  END {
    n='"$N"'
    if (n > 0) printf "localnet: per node: %.0f packets out, %.0f datagrams in, %.0f bits out\n",
      po/n, dg/n, bo/n
    # So a lossy run is diagnosable from the summary line alone; buckets
    # come in the order the files list them.
    line = ""; total = 0
    for (i = 1; i <= buckets; i++) {
      b = order[i]; total += drop[b]
      name = b; sub(/^udp_(drop_)?/, "", name); gsub(/_/, "-", name)
      line = line sprintf(" %s=%.0f", name, drop[b])
    }
    printf "localnet: udp drops (total %.0f):%s\n", total, line
  }
' "$OUTDIR"/node*.metrics 2>/dev/null || true

if ((fail != 0 || done_ok != N)); then
  echo "localnet: FAILED — unfinished nodes:" >&2
  grep -L '^DONE .*ok=true' "$OUTDIR"/node*.log >&2 || true
  exit 1
fi

# A hostile run that shows zero drops in the mutated kinds means the
# injection silently did nothing — fail loudly, not greenly. Truncation
# must land in the truncated bucket; bit flips land in version (the
# recipe forces the version byte when a flip would still parse), type
# or malformed depending on where the flip hit.
if ((HOSTILE)); then
  awk -F= '
    /^udp_drop_truncated=/ {trunc+=$2}
    /^udp_drop_version=/ {parse+=$2}
    /^udp_drop_type=/ {parse+=$2}
    /^udp_drop_malformed=/ {parse+=$2}
    END {
      if (trunc == 0) { print "localnet: HOSTILE but no truncated drops" > "/dev/stderr"; exit 1 }
      if (parse == 0) { print "localnet: HOSTILE but no version/type/malformed drops" > "/dev/stderr"; exit 1 }
      printf "localnet: hostile drops confirmed: truncated=%.0f version+type+malformed=%.0f\n", trunc, parse
    }
  ' "$OUTDIR"/node*.metrics
fi
echo "localnet: OK"
