"""Repeatability check: independent sets of benchmark runs of one commit.

    python3 bench/repeat.py [--trace-runs 0] [--out FILE]
    python3 bench/repeat.py --from FILE     # summarise saved runs again

Two sets of ten runs on every workload of BENCHMARK.json.  Each run is a
fresh `bench/run.py` process with its own seed (set s, run i uses seed
1000 s + i), run one after another so that runs never compete for the
cores.  For every end-to-end metric on every workload the report gives
each set's median and quartiles, the spread (q3 - q1) / median against
the metric's bound in BENCHMARK.json, and how far the second set's median
moved from the first set's, in either direction.  Metrics
that had to be redefined or lengthened to be steady are flagged.  Results
are comparable only when the runs' environment records match; the command
refuses to summarise runs that differ.  With --trace-runs N it then makes
N traced runs per workload and reports the per-layer medians.  The exit
status is 1 when a spread or a drift exceeds its bound, or when a run
reports correct=false.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from harness import COMPARABLE_KEYS  # noqa: E402

# Metrics redefined or lengthened to make them steady, and why.
ADJUSTED = {
    "ok_ratio": "replaces fail_ratio (failed / attempted), which is 0 when every op "
                "passes and so admits no relative bound",
    "op_p50_ms": "factor keeps 10 small pairs, not most of its ops, and analyses has six "
                 "quotient checks and one anova_f, so that each median is a LAPACK-bound op "
                 "rather than interpreter overhead, which drifts by half between runs on a "
                 "shared host",
    "op_tail_ms": "percentile fixed per workload inside one latency class, not read off "
                  "the sample count; analyses lengthened to at least 7 passes; on factor it sits "
                  "on the mid pairs and on analyses on principal_angles, not on memory-bound ops, "
                  "which slow twice as much as the rest when the host is contended",
    "defect_gmean_eps": "replaces worst_defect_eps: the geometric mean over checked factors, "
                        "since the worst is set by one seed-dependent pair and its spread "
                        "over seeds exceeds any allowed bound; orthogonality loss is a "
                        "Frobenius norm over probe vectors, not an entrywise maximum",
    "setup_s": "median of 7 fresh launches per run, spread over the run between passes",
    "workloads": "the cli workload is dropped: its interpreter-bound time spread by 0.2 to "
                 "0.4 over ten seeds, past the largest bound; a smaller CLI mix rides in "
                 "analyses so the cli and jacobi layers are still measured; factor leaves "
                 "out pairs whose B is small beside A (A * 10^5, 2500/30 x 30), on which the "
                 "library fails the reconstruction check (workloads.KNOWN_DEFECT)",
}
COMPARE_KEYS = COMPARABLE_KEYS + ("git_commit", "source_digest")
SETS = 2
RUNS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def collect(names, trace_runs: int, seconds: int) -> dict:
    data = {"sets": {w: [[] for _ in range(SETS)] for w in names},
            "traced": {w: [] for w in names}, "records": {w: [] for w in names}}
    for s in range(SETS):
        for w in names:
            for i in range(RUNS):
                record, result = run_once(w, 1000 * (s + 1) + i, seconds, 0)
                data["records"][w].append(record)
                data["sets"][w][s].append(result)
                print(f"set {s + 1} {w} run {i + 1}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)
    for w in names:
        for i in range(trace_runs):
            record, result = run_once(w, 9000 + i, seconds, 1)
            data["records"][w].append(record)
            data["traced"][w].append(result)
    return data


def quartiles(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def drift(first: float, later: float) -> float:
    """Share of `first` by which `later` differs from it, either way."""
    return abs(later - first) / first if first else 0.0


def summarise(spec: dict, data: dict) -> tuple[dict, bool]:
    envs = {tuple(r["environment"].get(k) for k in COMPARE_KEYS)
            for records in data["records"].values() for r in records}
    if len(envs) > 1:
        print("runs are not comparable, their environments differ:", file=sys.stderr)
        for env in sorted(envs, key=str):
            print("  " + json.dumps(dict(zip(COMPARE_KEYS, env))), file=sys.stderr)
        return {}, False

    summary, ok = {"end_to_end": {}, "per_layer": {}}, True
    print(f"{'workload':9} {'metric':17} {'bound':>5}  {'set medians':>23}  "
          f"{'spreads':>15}  {'drift':>6}  flags")
    for w, sets in data["sets"].items():
        summary["end_to_end"][w] = {}
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = [quartiles([r["metrics"][name]["value"] for r in runs]) for runs in sets]
            moved = max(drift(stats[0]["median"], s["median"]) for s in stats[1:])
            flags = []
            if any(s["spread"] > bound for s in stats):
                flags.append("SPREAD>BOUND")
            elif any(s["spread"] > bound / 3 for s in stats):
                flags.append("spread>bound/3")
            if moved > bound:
                flags.append("DRIFT>BOUND")
            ok = ok and not any(f.isupper() for f in flags)
            if name in ADJUSTED:
                flags.append("adjusted")
            summary["end_to_end"][w][name] = {"bound": bound, "sets": stats, "drift": moved,
                                              "flags": flags}
            medians = " ".join(format(s["median"], "11.5g") for s in stats)
            spreads = " ".join(format(s["spread"], "7.3f") for s in stats)
            print(f"{w:9} {name:17} {bound:5.2f}  {medians:>23}  {spreads:>15}  "
                  f"{moved:6.3f}  {' '.join(flags)}")
        incorrect = sum(not r["correct"] for runs in sets for r in runs)
        if incorrect:
            ok = False
            print(f"{w:9} INCORRECT: {incorrect} of {sum(map(len, sets))} runs reported "
                  f"correct=false")
    for name, why in ADJUSTED.items():
        print(f"adjusted {name}: {why}")
    for w, runs in data["traced"].items():
        if runs:
            summary["per_layer"][w] = {
                name: statistics.median(r["metrics"][name]["value"] for r in runs)
                for name in runs[0]["metrics"]}
    return summary, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-runs", type=int, default=0)
    parser.add_argument("--out", default=None, help="write runs and summary as JSON here")
    parser.add_argument("--from", dest="source", default=None,
                        help="summarise the runs saved in this file instead of running")
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.source:
        with open(args.source, encoding="utf-8") as fh:
            data = json.load(fh)["data"]
    else:
        names = [w["name"] for w in spec["workloads"]]
        data = collect(names, args.trace_runs, spec["run_seconds"])
    summary, ok = summarise(spec, data)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"run_seconds": spec["run_seconds"], "adjusted": ADJUSTED,
                       "summary": summary, "data": data}, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
