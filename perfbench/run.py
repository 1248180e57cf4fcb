"""The propmod benchmark: one workload, in a child process of its own, checked and measured.

Usage, from the repository root:

    python3 perfbench/run.py --workload plain38-cifar --seed 1 --seconds 30 --trace 0

Metric names, units and directions come from ``BENCHMARK.json`` at the root.
The output is one line per metric, then the machine facts and checks, and as
its last line one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. The exit code is 0 only when every check passed
and no op failed. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = ".perfbench-out"  # scratch for the workload process, and span files
CHILD_TIMEOUT_S = 170


def child_env(root: Path) -> dict:
    """The library from source, and BLAS threads no more than the cores this process may use."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_child(root: Path, args) -> tuple:
    """Run the workload process; returns (its result dict or None, a failure note)."""
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
        cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", workdir]
        try:
            proc = subprocess.run(cmd, cwd=root, env=child_env(root), stdout=subprocess.PIPE,
                                  text=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, f"workload process killed after {CHILD_TIMEOUT_S}s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"workload process exited with code {proc.returncode}"
    try:
        return json.loads(lines[-1]), ""
    except json.JSONDecodeError:
        return None, "workload process printed no result"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="propmod benchmark")
    ap.add_argument("--workload", required=True, help="a workload named in BENCHMARK.json")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "propmod" / "__init__.py").is_file() or not spec_path.is_file():
        print("perfbench: run from a repository root holding BENCHMARK.json and src/propmod",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    result, note = run_child(root, args)
    if result is None:
        # a crashed or killed workload counts as one failed op
        result = {"attempted": 1, "failed": 1, "metrics": {}, "checks": {}, "errors": [note],
                  "facts": {}}

    metrics, missing = {}, []
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    for m in declared:
        value = result["metrics"].get(m["name"])
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            missing.append(m["name"])
            value = None
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        ops = result.get("samples", {}).get(m["name"])
        print(f"  {m['name']:<40} {value!s:>22} {m['unit']:<8} {m['better']} is better"
              + (f" (median of {ops} ops)" if ops else ""))
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'ops_failed_frac':<40} {failed / max(attempted, 1):>22} fraction lower is better "
          f"({failed} of {attempted} ops)")
    for key, value in result["facts"].items():
        print(f"  machine.{key}: {value}")
    for name, ok in result["checks"].items():
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")
    for err in result["errors"]:
        print(f"  error: {err}")
    for m in missing:
        print(f"  error: metric {m} was not measured")
    for root_name, rows in result.get("breakdown", {}).items():
        whole = sum(rows.values())
        if whole:
            print(f"  self time under {root_name} ({whole:.3f} s):")
            for name, t in sorted(rows.items(), key=lambda kv: -kv[1])[:16]:
                print(f"    {name:<44} {t:9.4f} s {100 * t / whole:5.1f}%")
    if "spans_file" in result:
        print(f"  spans: {result['spans_file']}")

    correct = failed == 0 and not missing and all(result["checks"].values()) and bool(result["checks"])
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
