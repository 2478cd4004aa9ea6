"""Summarise or compare benchmark result files (``.bench_results/results.jsonl``).

    python3 perfbench/compare.py RESULTS                  # medians and spreads
    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

With one file it prints, per workload and end-to-end metric, the median of the
untraced runs and their spread (interquartile range over median) against the
metric's bound, plus the tracing overhead when traced runs are present.

With two files it applies the pairs rule: runs are paired by seed, and a
metric counts as a gain only when the change wins at least nine tenths of at
least ten pairs (ties count for neither) and the medians differ by more than
the parent's interquartile range.  Otherwise the change's median may be worse
than the parent's by at most the metric's bound; where the parent's spread is
wider than the bound the metric is "unresolved", unless every run of the
change reads better than every run of the parent.  One row per workload.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path: str) -> dict[str, list[dict]]:
    """Records by workload; traced runs go under '<workload>+trace'."""
    runs: dict[str, list[dict]] = defaultdict(list)
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                rec = json.loads(line)
                runs[rec["workload"] + ("+trace" if rec["trace"] else "")].append(rec)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def better(a: float, b: float, direction: str) -> bool:
    return a > b if direction == "higher" else a < b


def verdict(parent: dict[int, float], change: dict[int, float], metric: dict) -> str:
    direction, bound = metric["better"], metric["bound"]
    base, new = list(parent.values()), list(change.values())
    q1, base_med, q3 = quartiles(base)
    new_med = statistics.median(new)
    seeds = sorted(set(parent) & set(change))
    wins = sum(better(change[s], parent[s], direction) for s in seeds)
    rel = (new_med - base_med) / abs(base_med)
    tag = f"{rel:+.1%}"
    if (len(seeds) >= MIN_PAIRS and wins >= WIN_SHARE * len(seeds)
            and abs(new_med - base_med) > q3 - q1):
        return f"gain {tag} ({wins}/{len(seeds)} pairs)"
    all_better = all(better(n, b, direction) for n in new for b in base)
    if spread(base) > bound and not all_better:
        return f"unresolved {tag} (spread {spread(base):.1%} > bound {bound:.0%})"
    worse_by = -rel if direction == "higher" else rel
    if worse_by > bound:
        return f"REGRESSED {tag} (bound {bound:.0%})"
    return f"same {tag}"


def fails(records: list[dict]) -> str:
    return f"{sum(r['failed'] for r in records)}/{sum(r['attempted'] for r in records)} failed"


def overhead(runs: dict[str, list[dict]], workload: str) -> str:
    plain, traced = runs.get(workload), runs.get(workload + "+trace")
    if not plain or not traced:
        return ""
    base = statistics.median(r["end_to_end"]["ops_per_s"] for r in plain)
    with_trace = statistics.median(r["layers"]["trace.ops_per_s"] for r in traced)
    return f"tracing overhead {1 - with_trace / base:.1%} of ops_per_s"


def summarise(runs: dict[str, list[dict]], metrics: list[dict]) -> None:
    for workload in sorted(w for w in runs if not w.endswith("+trace")):
        records = runs[workload]
        print(f"{workload}: {len(records)} runs, {fails(records)}; {overhead(runs, workload)}")
        for metric in metrics:
            values = [r["end_to_end"][metric["name"]] for r in records]
            s = spread(values)
            flag = "" if s < metric["bound"] / 3 else "  <- spread above a third of the bound"
            print(f"  {metric['name']:<14} median {statistics.median(values):.6g} "
                  f"{metric['unit']:<4} spread {s:6.2%} bound {metric['bound']:.0%}{flag}")


def compare(parent: dict[str, list[dict]], change: dict[str, list[dict]],
            metrics: list[dict]) -> None:
    for workload in sorted(w for w in parent if not w.endswith("+trace")):
        if workload not in change:
            print(f"{workload}: no runs of the change")
            continue
        cells = []
        for metric in metrics:
            name = metric["name"]
            p = {r["seed"]: r["end_to_end"][name] for r in parent[workload]}
            c = {r["seed"]: r["end_to_end"][name] for r in change[workload]}
            cells.append(f"{name} {verdict(p, c, metric)}")
        print(f"{workload} [parent {fails(parent[workload])}, change "
              f"{fails(change[workload])}]: " + "; ".join(cells))


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    with open(BENCHMARK, encoding="utf-8") as handle:
        metrics = json.load(handle)["end_to_end"]
    if len(argv) == 1:
        summarise(load(argv[0]), metrics)
    else:
        compare(load(argv[0]), load(argv[1]), metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
