#!/usr/bin/env sh
# bench_compare.sh — run the bench-smoke suite on HEAD's working tree
# and on the merge-base with origin/main (or HEAD~1 when no remote is
# available), and report per-benchmark deltas. Uses benchstat when it
# is installed; falls back to a plain side-by-side diff otherwise.
#
# Environment knobs:
#   BASE_REF   override the baseline commit (default: merge-base)
#   BENCH      benchmark regexp (default: .)
#   BENCHTIME  go test -benchtime value (default: 1x)
#   COUNT      go test -count value (default: 1)
#
# Timing deltas are advisory (1x runs are noisy), but allocs/op is
# deterministic: a >10% allocs/op regression on a gated benchmark
# (BenchmarkKernel, BenchmarkOutOfCore, the in-process
# BenchmarkMultiCFDSeqVsPar sub-benchmarks, BenchmarkDetectorServe,
# BenchmarkAblationAdmission, BenchmarkIncrementalDetect) exits 1, and
# CI wires the target in as a blocking step. The end-to-end benches
# are gated so allocation drift across the whole detection path fails
# CI, not only drift inside the kernel. Their 1x allocs/op repeat to
# within a fraction of a percent, except BenchmarkAblationAdmission,
# whose concurrent sessions spread its allocs/op by up to 2% (still
# well inside the 10% gate). Benchmarks absent from the baseline
# (renamed or newly added) are skipped, so the gate degrades
# gracefully across restructurings.
set -e

BENCH="${BENCH:-.}"
BENCHTIME="${BENCHTIME:-1x}"
COUNT="${COUNT:-1}"
OUT_DIR="$(mktemp -d)"
trap 'rm -rf "$OUT_DIR"' EXIT

run_bench() {
    dir="$1"
    out="$2"
    (cd "$dir" && go test -run '^$' -bench "$BENCH" -benchtime "$BENCHTIME" -count "$COUNT" .) >"$out" 2>&1
}

echo "== bench-compare: HEAD (working tree)"
run_bench . "$OUT_DIR/new.txt" || { cat "$OUT_DIR/new.txt"; exit 1; }

if [ -z "$BASE_REF" ]; then
    if git rev-parse --verify -q origin/main >/dev/null 2>&1; then
        BASE_REF=$(git merge-base HEAD origin/main)
    else
        BASE_REF=$(git rev-parse -q --verify HEAD~1 || true)
    fi
fi
if [ -z "$BASE_REF" ]; then
    echo "bench-compare: no baseline commit available; HEAD numbers only"
    cat "$OUT_DIR/new.txt"
    exit 0
fi
if [ "$(git rev-parse "$BASE_REF")" = "$(git rev-parse HEAD)" ] && git diff --quiet HEAD; then
    echo "bench-compare: HEAD is the baseline ($BASE_REF) with a clean tree; nothing to compare"
    cat "$OUT_DIR/new.txt"
    exit 0
fi

echo "== bench-compare: baseline $(git rev-parse --short "$BASE_REF")"
WT="$OUT_DIR/base-src"
git worktree add --detach -q "$WT" "$BASE_REF"
trap 'git worktree remove --force "$WT" >/dev/null 2>&1 || true; rm -rf "$OUT_DIR"' EXIT
if ! run_bench "$WT" "$OUT_DIR/old.txt"; then
    echo "bench-compare: baseline bench run failed (benchmarks may not exist there); HEAD numbers only"
    cat "$OUT_DIR/new.txt"
    exit 0
fi

echo "== bench-compare: deltas (baseline -> HEAD)"
if command -v benchstat >/dev/null 2>&1; then
    benchstat "$OUT_DIR/old.txt" "$OUT_DIR/new.txt" || true
else
    echo "(benchstat not installed; plain per-benchmark diff)"
    grep '^Benchmark' "$OUT_DIR/old.txt" | sed 's/^/OLD  /' || true
    grep '^Benchmark' "$OUT_DIR/new.txt" | sed 's/^/NEW  /' || true
fi

echo "== bench-compare: allocs/op gate (BenchmarkKernel, BenchmarkOutOfCore, BenchmarkMultiCFDSeqVsPar, BenchmarkDetectorServe, BenchmarkAblationAdmission, BenchmarkIncrementalDetect; >10% fails)"
if ! awk '
    FNR == 1 { f++ }
    /^Benchmark(Kernel|OutOfCore|MultiCFDSeqVsPar\/|DetectorServe|AblationAdmission|IncrementalDetect)/ {
        v = ""
        for (i = 2; i < NF; i++) if ($(i + 1) == "allocs/op") v = $i
        if (v == "") next
        if (f == 1) oldv[$1] = v
        else        newv[$1] = v
    }
    END {
        bad = 0
        for (n in newv) {
            if (!(n in oldv)) { printf "  %s: no baseline (new or renamed); skipped\n", n; continue }
            if (oldv[n] + 0 > 0 && newv[n] + 0 > oldv[n] * 1.10) {
                printf "  REGRESSION %s: %d -> %d allocs/op (+%.1f%%)\n", n, oldv[n], newv[n], (newv[n] / oldv[n] - 1) * 100
                bad = 1
            } else {
                printf "  ok %s: %d -> %d allocs/op\n", n, oldv[n], newv[n]
            }
        }
        exit bad
    }
' "$OUT_DIR/old.txt" "$OUT_DIR/new.txt"; then
    echo "bench-compare: FAIL — allocs/op regressed >10% on a gated benchmark"
    exit 1
fi
