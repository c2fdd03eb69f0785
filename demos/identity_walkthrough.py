#!/usr/bin/env python3
"""Walk one frequency through the windowed-sum identity and its asymptotics.

Builds the canonical instance at a chosen T (dyadic center N = T^(3/2),
n at the stationary index), then prints:

  1. the three sides of the identity M = A - O and their residual,
  2. the recovered main integral from a second prime pair, checked in the
     same call against the same M, showing the identity does not care which
     (p, l) drives the discretization,
  3. the amplified average over a whole prime-pair family,
  4. the stationary-phase leading term against the quadrature oracle.

Run: python3 demos/identity_walkthrough.py [--t 300]
"""
import argparse
import math

from gl3osc import (
    AmplifierSpec,
    KeyIdentityInstance,
    amplified_average,
    stationary_phase_main,
    verify_key_identity,
)
from gl3osc.util import TWO_PI


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--t", type=float, default=300.0)
    args = parser.parse_args()

    T = args.t
    N = T**1.5
    n = math.ceil(N / TWO_PI)
    print(f"T = {T:g}, N = T^(3/2) = {N:.3f}, stationary index n = {n}")

    print("\n-- identity M = A - O, two prime pairs --")
    pairs = ((5, 3), (7, 2))
    reports = verify_key_identity(
        KeyIdentityInstance(T=T, n=n, N=N, p=5, l=3, tol=1e-9), pairs)
    for (p, l), rep in zip(pairs, reports):
        print(f"(p,l) = ({p},{l}):")
        print(f"  M = {rep.m_value:.12f}")
        print(f"  A = {rep.a_value:.12f}")
        print(f"  O = {rep.o_value:.12f}")
        print(f"  |M - (A - O)| = {rep.residual:.3e}"
              f"  (budget {rep.budget:.3e})")
    gap = abs(reports[0].recovered_m - reports[1].recovered_m)
    print(f"recovered M gap across pairs = {gap:.3e} "
          f"(one M, re-extracted from each pair's A - O)")

    print("\n-- amplified average --")
    amp = AmplifierSpec.for_t(T)
    base = KeyIdentityInstance(T=T, n=n, N=N, p=amp.pairs[0][0],
                               l=amp.pairs[0][1], tol=1e-9)
    a_avg, o_avg = amplified_average(base, amp)
    m = reports[0].m_value  # the same T, n, N and tol: the same M
    wpc = amp.weighted_pair_count()
    print(f"pairs {amp.pairs}, prime-counting weight {amp.weight:.6f}")
    print(f"averaged (A - O)      = {a_avg - o_avg:.12f}")
    print(f"M * weighted count    = {m * wpc:.12f}")
    print(f"residual              = {abs((a_avg - o_avg) - m * wpc):.3e}")

    print("\n-- stationary phase --")
    lead, envelope = stationary_phase_main(base.osc)
    print(f"oracle M       = {m:.12f}")
    print(f"leading term   = {lead:.12f}")
    print(f"|M - leading|  = {abs(m - lead):.3e}"
          f"  (next-order envelope {envelope:.3e})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
