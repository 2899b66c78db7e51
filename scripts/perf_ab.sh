#!/usr/bin/env bash
# Interleaved A/B of the repository benchmark: a base revision against the
# working tree, on the same host, in alternating runs.
#
#   scripts/perf_ab.sh <base-rev> <workload> [pairs] [seconds]
#
# <base-rev> is any git revision (for a change: its parent commit). It is
# exported with `git archive` into a temporary directory and built there
# (its own build directory), so the working tree, its build cache and the
# git metadata are left alone. The head side is the working tree as it is,
# uncommitted edits included.
#
# Each pair runs `python3 perfbench/run.py --workload <workload> --seed <s>
# --seconds <seconds> --trace 0` once on each side with the same seed; the
# side that goes first alternates from pair to pair, so slow drift of the
# host's speed hits both sides alike. Seeds run from PERF_AB_FIRST_SEED
# (default 1) upwards. pairs defaults to 10 and seconds to the
# `run_seconds` of BENCHMARK.json.
#
# The summary prints, for every end-to-end metric of BENCHMARK.json, each
# side's median and quartiles, the number of pairs the head wins (strictly
# better in the metric's direction), and whether the medians differ by more
# than the base side's interquartile range; then the host fingerprint
# (CPU model, nproc, kernel, rustc). The raw per-run results stay in a
# temporary file, whose path is printed last.
#
# The script reads what perfbench prints and changes nothing under
# perfbench/ (perfbench itself writes its reports to perfbench/out/).
set -euo pipefail

if [[ $# -lt 2 || $# -gt 4 ]]; then
    echo "usage: $0 <base-rev> <workload> [pairs] [seconds]" >&2
    exit 2
fi
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

base_rev="$(git rev-parse --verify "$1^{commit}")"
workload="$2"
pairs="${3:-10}"
seconds="${4:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}"
first_seed="${PERF_AB_FIRST_SEED:-1}"
results="$(mktemp -t perf_ab.XXXXXX.jsonl)"

base_dir="$(mktemp -d -t perf_ab_base.XXXXXX)"
cleanup() { rm -rf "$base_dir"; }
trap cleanup EXIT

echo "==> exporting base ${base_rev:0:12} into $base_dir" >&2
git archive "$base_rev" | tar -x -C "$base_dir"

# Builds a side once up front, so no timed run pays for compilation.
build() {
    local dir="$1" target="$2"
    (cd "$dir" && CARGO_TARGET_DIR="$target" \
        cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml)
}
echo "==> building base" >&2
build "$base_dir" "$base_dir/.bench_build"
echo "==> building head" >&2
build "$root" "$root/.bench_build"

# Runs one side once and appends {"side", "pair", "seed", "result"}.
run_side() {
    local side="$1" pair="$2" seed="$3" dir target line
    if [[ "$side" == base ]]; then
        dir="$base_dir"; target="$base_dir/.bench_build"
    else
        dir="$root"; target="$root/.bench_build"
    fi
    line="$(cd "$dir" && CARGO_TARGET_DIR="$target" python3 perfbench/run.py \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
        2>/dev/null | tail -n 1)"
    if [[ "${line:0:1}" != "{" ]]; then
        echo "perf_ab: the $side run of pair $pair (seed $seed) printed no result" >&2
        exit 1
    fi
    printf '{"side":"%s","pair":%d,"seed":%d,"result":%s}\n' \
        "$side" "$pair" "$seed" "$line" >> "$results"
}

for ((pair = 0; pair < pairs; pair++)); do
    seed=$((first_seed + pair))
    if ((pair % 2 == 0)); then order=(base head); else order=(head base); fi
    echo "==> pair $((pair + 1))/$pairs (seed $seed): ${order[0]} first" >&2
    for side in "${order[@]}"; do
        run_side "$side" "$pair" "$seed"
    done
done

python3 - "$results" "$workload" "$seconds" "${base_rev:0:12}" <<'PY'
import json
import platform
import subprocess
import sys

results_path, workload, seconds, base_rev = sys.argv[1:5]
manifest = json.load(open("BENCHMARK.json"))
runs = [json.loads(line) for line in open(results_path)]
pairs = sorted({r["pair"] for r in runs})
by = {(r["side"], r["pair"]): r["result"] for r in runs}


def quartiles(values):
    """Lower quartile, median, upper quartile (linear interpolation)."""
    xs = sorted(values)

    def q(p):
        pos = p * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

    return q(0.25), q(0.5), q(0.75)


print(f"perf_ab: {workload}, base {base_rev} vs working tree, "
      f"{len(pairs)} pairs x {seconds} s")
for side in ("base", "head"):
    bad = [p for p in pairs if not by[(side, p)]["correct"]]
    if bad:
        print(f"  {side}: correct=false in pairs {bad}")
header = (f"{'metric':<24} {'base q1':>11} {'base med':>11} {'base q3':>11} "
          f"{'head q1':>11} {'head med':>11} {'head q3':>11} {'change':>8} "
          f"{'wins':>6}  beyond base IQR")
print(header)
for metric in manifest["end_to_end"]:
    name, higher = metric["name"], metric["better"] == "higher"
    base = [by[("base", p)]["metrics"][name]["value"] for p in pairs]
    head = [by[("head", p)]["metrics"][name]["value"] for p in pairs]
    bq1, bmed, bq3 = quartiles(base)
    hq1, hmed, hq3 = quartiles(head)
    wins = sum((h > b) if higher else (h < b) for b, h in zip(base, head))
    change = (hmed - bmed) / bmed * 100 if bmed else 0.0
    better = hmed > bmed if higher else hmed < bmed
    beyond = better and abs(hmed - bmed) > (bq3 - bq1)
    print(f"{name:<24} {bq1:>11.6g} {bmed:>11.6g} {bq3:>11.6g} "
          f"{hq1:>11.6g} {hmed:>11.6g} {hq3:>11.6g} {change:>+7.1f}% "
          f"{wins:>3}/{len(pairs):<2}  {'yes' if beyond else 'no'}")

cpu = "unknown"
try:
    for line in open("/proc/cpuinfo"):
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
except OSError:
    pass
nproc = subprocess.run(["nproc"], capture_output=True, text=True).stdout.strip()
rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True).stdout.strip()
print(f"host: {cpu}; nproc {nproc}; {platform.system()} {platform.release()}; {rustc}")
print(f"raw results: {results_path}")
PY
