#!/usr/bin/env python3
"""Compute one weighted coefficient sum three independent ways.

On the d3 model (all spectral parameters zero), the windowed sum over
coefficients, the unfolded per-n oscillatory integrals, and the discretized
route that recovers each main integral from the windowed-sum identity must
agree within their calibrated envelopes. Also shows the degenerate window
Y = 1, where the dyadic weight misses the h1 support entirely and every
route returns exactly zero.

Run: python3 demos/route_comparison.py [--t 100]
"""
import argparse
from dataclasses import replace

from gl3osc import AmplifierSpec, LanglandsParams, SumSpec, compare_routes, synth_eisenstein
from gl3osc.sums import table_size


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--t", type=float, default=100.0)
    args = parser.parse_args()

    T = args.t
    d3 = LanglandsParams(alpha=(0.0j, 0.0j, 0.0j))
    # one table for both windows: the size a spec needs only grows as Y shrinks
    table = synth_eisenstein(d3, table_size(T, 1.0))
    spec = SumSpec(T=T, table=table, tol=1e-6)
    lo, hi = spec.sum_window()
    print(f"T = {T:g}, Y = 4 pi, N = {spec.N:.3f}, "
          f"coefficient window {lo}..{hi}")

    base = AmplifierSpec.for_t(T)
    amp = replace(base, primes_p=base.primes_p[:1], primes_l=base.primes_l[:1])
    print(f"amplifier pair {amp.pairs[0]} "
          f"(one pair keeps the demo under a minute)")

    rep = compare_routes(spec, amp)
    print(f"\nsum route        = {rep.s_sum:.9f}")
    print(f"integral route   = {rep.s_integral:.9f}")
    print(f"discretized route= {rep.s_keyident:.9f}")
    print(f"\n|sum - integral| = {rep.resid_sum_integral:.6f}"
          f"  envelope {rep.budget_sum_integral:.6f}"
          f"  -> {'ok' if rep.passed_sum_integral else 'EXCEEDED'}")
    print(f"|int - discrete| = {rep.resid_integral_keyident:.6f}"
          f"  envelope {rep.budget_keyident:.6f}"
          f"  -> {'ok' if rep.passed_keyident else 'EXCEEDED'}")

    print("\n-- degenerate window --")
    degenerate = compare_routes(SumSpec(T=T, table=table, Y=1.0, tol=1e-6), amp)
    print("Y = 1 pushes every weight argument below the h1 support floor,")
    print("so each route is exactly zero:")
    print(f"sum route        = {degenerate.s_sum}")
    print(f"integral route   = {degenerate.s_integral}")
    print(f"discretized route= {degenerate.s_keyident}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
