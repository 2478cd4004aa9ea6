"""Run one benchmark workload and print its metrics; see perfbench/README.md.

    python3 perfbench/run.py --workload series --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Set-up is timed in SETUP_SAMPLES fresh
processes (the last one then measures), from launch until the first timed op
could start, each rescaled for machine speed by the calibration snippet the
process times just after set-up, and reported as their median.  Every metric is printed with its
unit; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record, with the environment, is also
appended to ``.bench_results/results.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("series", "profile", "verify")
SETUP_SAMPLES = 3
# every process of a run must end within this; a traced verify run, the
# longest, takes ~90 s including one ~45 s J-constant oracle call
DEADLINE_S = 170.0


def source_hash(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "kramers").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree of its own."""
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def launch(root: Path, argv: list[str], deadline: float) -> tuple[float, dict]:
    """Run a worker that must end by ``deadline``; return (launch time, report)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(HERE)] + [p for p in [env.get("PYTHONPATH")] if p])
    launched = time.time()
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *argv], cwd=root,
                          env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - launched))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return launched, json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "kramers" / "__init__.py").is_file():
        print(f"no kramers sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    results = root / ".bench_results"
    results.mkdir(exist_ok=True)
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--results", str(results)]

    deadline = time.time() + DEADLINE_S
    setup = []  # (seconds to ready, slowness just after) per process
    for _ in range(SETUP_SAMPLES - 1):
        launched, report = launch(root, argv + ["--setup-only"], deadline)
        setup.append((report["ready_at"] - launched, report["ready_slowness"]))
    launched, report = launch(root, argv, deadline)
    setup.append((report["ready_at"] - launched, report["ready_slowness"]))

    failed = report["failed"]
    values = {"setup_s": statistics.median(secs / slow for secs, slow in setup),
              **report["end_to_end"]}
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    source, listed = ((report["layers"], spec["per_layer"]) if args.trace
                      else (values, spec["end_to_end"]))
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in listed}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": failed == 0,
        "attempted": report["attempted"],
        "failed": failed,
        "fail_ratio": failed / report["attempted"],
        "failures": report["failures"],
        "setup_samples_s": [secs for secs, _ in setup],
        "setup_slowness": [slow for _, slow in setup],
        "op_tail_pct": report["op_tail_pct"],
        "block_ops_per_s": report["block_ops_per_s"],
        "block_cpu_s": report["block_cpu_s"],
        "block_calibration_s": report["block_calibration_s"],
        "raw": report["raw"],
        "end_to_end": values,
        "layers": report["layers"],
        "spans": report["spans"],
        "env": {
            **report["env"],
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "git_commit": git_commit(root),
            "src_hash": source_hash(root),
            "seed": args.seed,
        },
    }
    with open(results / "results.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")

    for reason in record["failures"]:
        print(f"FAILED {reason}")
    print(f"{args.workload} seed={args.seed} ops={record['attempted']} "
          f"failed={failed} tail=p{record['op_tail_pct']:.0f} of {record['attempted']}")
    for name, metric in metrics.items():
        print(f"  {name:<36} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
