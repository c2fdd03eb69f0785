"""One benchmark run in a fresh process: set up, timed rounds, checks.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload W --seed N --setup-only

`run.py` starts this with the checkout's `src` on PYTHONPATH and reads the
JSON object it prints as its last line. Rounds repeat until `--seconds`
have passed and are never fewer than two, so that every operation's
canonical report can be compared byte for byte across repeats. With
`--trace 1` every second round runs under the layer trace, and there are
never fewer than three.
"""
import argparse
import json
import sys
import time

STARTED = time.perf_counter()

import resource  # noqa: E402
import statistics  # noqa: E402

import gl3osc  # noqa: E402
from gl3osc.errors import GL3OscError  # noqa: E402
from gl3osc.reports import Report  # noqa: E402

import workloads as wl  # noqa: E402


def run_round(operations) -> dict:
    """Run every operation once; time the whole round as one span."""
    results, reports, checks, failed = {}, {}, [], []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for op in operations:
        try:
            results[op.name] = op.call()
        except GL3OscError as exc:
            failed.append(f"{op.name}: {type(exc).__name__}: {exc}")
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    # canonical reports are built after the span: they are the check, not the work
    for op in operations:
        if op.name in results:
            outputs, op_checks = op.report(results[op.name])
            reports[op.name] = Report(command=op.name, inputs=op.inputs,
                                      outputs=outputs, checks=op_checks).canonical_json()
            checks.extend(op_checks)
    return {"wall": wall, "cpu": cpu, "results": results, "reports": reports,
            "checks": checks, "failed": failed}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    operations = wl.WORKLOADS[args.workload]
    points = wl.check_points(args.seed)
    setup_s = time.perf_counter() - STARTED
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "module": gl3osc.__file__}))
        return 0

    tracer = None
    if args.trace:
        from layertrace import Tracer
        tracer = Tracer(args.workload)
    # a traced run makes a third round so that the overhead baseline can
    # leave out the first round, which pays the process's warm-up
    min_rounds = 2 if tracer is None else 3
    rounds, layer_rounds = [], []
    first = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - first < args.seconds:
        if tracer is not None and len(rounds) % 2 == 1:
            with tracer.active():
                rounds.append(run_round(operations))
            layer_rounds.append(tracer.metrics(rounds[-1]["checks"]))
        else:
            rounds.append(run_round(operations))
        print(f"round {len(rounds)}: {rounds[-1]['wall']:.3f} s wall, "
              f"{rounds[-1]['cpu']:.3f} s cpu", file=sys.stderr, flush=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # outside the timed span: every check within budget, reports identical
    # across repeats, and the independent references. A failed operation
    # counts in `failed`; `correct` speaks of the others.
    failures = [f for r in rounds for f in r["failed"]]
    problems = []
    for r in rounds:
        problems.extend(f"{c.check_id}: residual {c.residual:.3e} > budget {c.budget:.3e}"
                        for c in r["checks"] if not c.passed)
    for name, text in rounds[0]["reports"].items():
        if any(r["reports"].get(name, text) != text for r in rounds[1:]):
            problems.append(f"{name}: canonical report differs between rounds")
    refs = []
    if not failures:
        from references import REFERENCES
        refs = REFERENCES[args.workload](rounds[0]["results"], points)
    problems.extend(f"reference {name}: error {err:.3e} > tolerance {tol:.3e}"
                    for name, err, tol in refs if not err <= tol)

    attempted = len(rounds) * len(operations)
    untraced = [r for i, r in enumerate(rounds) if tracer is None or i % 2 == 0]
    out = {
        "module": gl3osc.__file__,
        "setup_s": setup_s,
        "rounds": len(rounds),
        "walls": [r["wall"] for r in rounds],
        "cpus": [r["cpu"] for r in rounds],
        "wall_s": statistics.median(r["wall"] for r in untraced),
        "cpu_s": statistics.median(r["cpu"] for r in untraced),
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "problems": problems,
        "references": [{"name": n, "error": e, "tolerance": t} for n, e, t in refs],
    }
    if tracer is not None:
        traced, baseline = rounds[1::2], rounds[2::2]
        out["trace_overhead"] = {
            key: statistics.median(r[key] for r in traced)
            / statistics.median(r[key] for r in baseline) - 1.0
            for key in ("wall", "cpu")}
        out["layers"] = {name: statistics.median(lr[name] for lr in layer_rounds)
                         for name in layer_rounds[0]}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
