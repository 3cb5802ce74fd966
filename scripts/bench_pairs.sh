#!/usr/bin/env sh
# bench_pairs.sh BASE_DIR [WORKLOAD] [N] — the paired-run procedure a
# performance claim is judged by: N alternating pairs of the repository
# benchmark, one side the checkout at BASE_DIR (the parent commit: a
# `git clone` or `git archive` copy), the other this checkout, each run
# being the benchmark's own command
#
#   bash bench/run.sh -scale SCALE -seconds SECONDS -workload WORKLOAD
#
# in its checkout (so each side builds from its own source). Odd pairs
# run the base first, even pairs the change first. For every end-to-end
# metric of BENCHMARK.json it prints each side's median and quartiles,
# the pairs the change won (ties count for neither), every run's value,
# and whether the claim rule holds: the change won at least 9 in 10 of
# the pairs, and its median differs from the base's by more than the
# base's quartile spread. Last come the failed/attempted operations per
# side.
#
#   WORKLOAD  default bulk-store-tcp
#   N         default 10
#   SEED      environment, default 42 (the benchmark's -seed)
#   SCALE     environment, default 0.25 (the benchmark's -scale)
#   SECONDS   environment, default 15 (the benchmark's -seconds)
#
# It reads the JSON result line the benchmark prints and writes only
# under .bench_build/ of the two checkouts, into a result file named
# after the workload, seed and scale. POSIX sh + awk, no download.
set -e

# bash keeps its own SECONDS (the shell's age), so the value is read
# from the environment itself.
RUN_SECONDS="$(env | sed -n 's/^SECONDS=//p')"
RUN_SECONDS="${RUN_SECONDS:-15}"
BASE_DIR="${1:?usage: bench_pairs.sh BASE_DIR [WORKLOAD] [N]}"
W="${2:-bulk-store-tcp}"
N="${3:-10}"
SEED="${SEED:-42}"
SCALE="${SCALE:-0.25}"
HERE="$(cd "$(dirname "$0")/.." && pwd)"
BASE_DIR="$(cd "$BASE_DIR" && pwd)"
OUT="$HERE/.bench_build/pairs"
mkdir -p "$OUT"
RES="$OUT/$W.seed$SEED.scale$SCALE.txt"
: >"$RES"

# run_side SIDE DIR PAIR appends "SIDE PAIR METRIC VALUE" rows to $RES.
run_side() {
    log="$OUT/run.log"
    if ! (cd "$2" && bash bench/run.sh -scale "$SCALE" -seconds "$RUN_SECONDS" -workload "$W" \
        -seed "$SEED" -trace 0 -out .bench_build/out) >"$log" 2>&1; then
        cat "$log" >&2
        echo "bench_pairs: $1 run of pair $3 failed" >&2
        exit 1
    fi
    awk -v side="$1" -v pair="$3" '
        /^[{]"correct"/ {
            line = $0
            if (match(line, /"attempted":[0-9]+/)) print side, pair, "attempted", substr(line, RSTART + 12, RLENGTH - 12)
            if (match(line, /"failed":[0-9]+/)) print side, pair, "failed", substr(line, RSTART + 9, RLENGTH - 9)
            while (match(line, /"[a-z0-9_]+":[{]"value":[-+0-9.eE]+/)) {
                m = substr(line, RSTART, RLENGTH)
                line = substr(line, RSTART + RLENGTH)
                split(m, kv, /":[{]"value":/)
                print side, pair, substr(kv[1], 2), kv[2]
            }
            found = 1
        }
        END { if (!found) exit 1 }' "$log" >>"$RES" || {
        cat "$log" >&2
        echo "bench_pairs: no result line from the $1 run of pair $3" >&2
        exit 1
    }
}

i=1
while [ "$i" -le "$N" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        echo "== pair $i/$N ($W, seed $SEED, scale $SCALE): base, change" >&2
        run_side base "$BASE_DIR" "$i"
        run_side change "$HERE" "$i"
    else
        echo "== pair $i/$N ($W, seed $SEED, scale $SCALE): change, base" >&2
        run_side change "$HERE" "$i"
        run_side base "$BASE_DIR" "$i"
    fi
    i=$((i + 1))
done

echo "bench-pairs: $W, seed $SEED, scale $SCALE, $RUN_SECONDS s a run, $N alternating pairs; base $BASE_DIR, change $HERE"
# The first file gives the metrics, their order and their direction; the
# second the rows collected above.
awk '
    function sorted(src, n, dst,    i, j, v) {
        for (i = 1; i <= n; i++) {
            v = src[i]
            for (j = i - 1; j >= 1 && dst[j] > v; j--) dst[j + 1] = dst[j]
            dst[j + 1] = v
        }
    }
    function quantile(a, n, p,    pos, lo) {
        pos = (n - 1) * p + 1
        lo = int(pos)
        if (lo >= n) return a[n]
        return a[lo] + (pos - lo) * (a[lo + 1] - a[lo])
    }
    # summary prints the line of one side and leaves its median and quartiles
    # in med, q1 and q3.
    function summary(side, m,    n, i, raw, s, line) {
        n = 0
        for (i = 1; i <= pairs; i++) if ((side, i, m) in val) raw[++n] = val[side, i, m]
        sorted(raw, n, s)
        med = quantile(s, n, 0.5); q1 = quantile(s, n, 0.25); q3 = quantile(s, n, 0.75)
        line = sprintf("  %-7s median %-12.6g quartiles %-12.6g %-12.6g runs", side, med, q1, q3)
        for (i = 1; i <= n; i++) line = line sprintf(" %.9g", raw[i])
        print line
    }
    FNR == NR {
        if ($0 ~ /"end_to_end"/) inside = 1
        else if ($0 ~ /"per_layer"/) inside = 0
        if (inside && match($0, /"name": *"[^"]+"/)) {
            name = substr($0, RSTART, RLENGTH)
            sub(/^"name": *"/, "", name)
            sub(/"$/, "", name)
            order[++metrics] = name
        }
        if (inside && $0 ~ /"better": *"higher"/) higher[name] = 1
        next
    }
    {
        val[$1, $2, $3] = $4 + 0
        if ($2 + 0 > pairs) pairs = $2 + 0
    }
    END {
        for (k = 1; k <= metrics; k++) {
            m = order[k]
            won = lost = tied = 0
            for (i = 1; i <= pairs; i++) {
                d = val["change", i, m] - val["base", i, m]
                if (m in higher) d = -d
                if (d < 0) won++; else if (d > 0) lost++; else tied++
            }
            printf "%s (%s is better): change won %d of %d pairs, lost %d, tied %d\n", m, (m in higher) ? "higher" : "lower", won, pairs, lost, tied
            summary("base", m)
            bmed = med; spread = q3 - q1
            summary("change", m)
            gap = med - bmed; if (gap < 0) gap = -gap
            printf "  claim rule %s: won %d of %d (needs >= 9 in 10), |median change - base| %.6g vs base quartile spread %.6g\n", \
                (won * 10 >= 9 * pairs && gap > spread) ? "holds" : "does not hold", won, pairs, gap, spread
        }
        for (i = 1; i <= pairs; i++) {
            fb += val["base", i, "failed"]; ab += val["base", i, "attempted"]
            fc += val["change", i, "failed"]; ac += val["change", i, "attempted"]
        }
        printf "failed: base %d of %d operations, change %d of %d\n", fb, ab, fc, ac
    }' "$HERE/BENCHMARK.json" "$RES"
