#!/usr/bin/env python3
"""Benchmark of the gl3osc verifier, run from the root of a checkout.

    python3 perfbench/run.py --workload identity|mellin|routes \
        --seed N --seconds S --trace 0|1

Runs the workload in a fresh process on the checkout's own `src` (see
README.md in this directory), checks every output, and prints the metrics
of BENCHMARK.json by name and unit. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}; with
`--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
per-layer ones. Per-run detail goes to perfbench/results/.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOADS = ("identity", "mellin", "routes")
SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 160.0
SETUP_TIMEOUT_S = 30.0


class BenchError(RuntimeError):
    pass


def _worker(args: list, timeout: float) -> dict:
    """Run worker.py on the checkout's source; return its last JSON line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    # A11's CSV round trip writes to a temporary directory: keep it in the checkout
    env["TMPDIR"] = str(RESULTS / "tmp")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=timeout, check=False, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} ran past {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    out = json.loads(lines[-1])
    if not Path(out["module"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"gl3osc imported from {out['module']}, not from {SRC}")
    return out


def _declared(kind: str) -> list:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)[kind]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (SRC / "gl3osc" / "__init__.py").is_file():
        print(f"no gl3osc source under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    (RESULTS / "tmp").mkdir(parents=True, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        run = _worker([*common, "--seconds", str(args.seconds),
                       "--trace", str(args.trace)], WORKER_TIMEOUT_S)
        if args.trace:
            measured = run["layers"]
            declared = _declared("per_layer")
        else:
            # after the run, so the samples see a filled bytecode cache
            run["setup_samples"] = [_worker([*common, "--setup-only"],
                                            SETUP_TIMEOUT_S)["setup_s"]
                                    for _ in range(SETUP_SAMPLES)]
            measured = {"setup_s": statistics.median(run["setup_samples"]),
                        "wall_s": run["wall_s"], "cpu_s": run["cpu_s"],
                        "peak_rss_mb": run["peak_rss_mb"]}
            declared = _declared("end_to_end")
        missing = [m["name"] for m in declared if m["name"] not in measured]
        if missing:
            raise BenchError(f"metrics not measured: {', '.join(missing)}")
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in declared}
    result = {"correct": not run["problems"], "attempted": run["attempted"],
              "failed": run["failed"], "metrics": metrics}

    detail = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps({"args": vars(args), "run": run, "result": result},
                                 indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}, seed {args.seed}: {run['rounds']} rounds, "
          f"{run['attempted']} operations attempted, {run['failed']} failed")
    for ref in run["references"]:
        held = "<=" if ref["error"] <= ref["tolerance"] else ">"
        print(f"  reference {ref['name']}: error {ref['error']:.3e} "
              f"{held} {ref['tolerance']:.3e}")
    for failure in run["failures"]:
        print(f"  FAILED {failure}")
    for problem in run["problems"]:
        print(f"  PROBLEM {problem}")
    if args.trace:
        over = run["trace_overhead"]
        print(f"  trace overhead {100.0 * over['wall']:+.1f}% wall, "
              f"{100.0 * over['cpu']:+.1f}% cpu, against the untraced rounds "
              "after the first")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
