#!/usr/bin/env python3
"""Normalize enormous left chains to show the linear-time shortest strategy.

A left chain of n nodes needs exactly n - 1 rotations.  The count is a
closed form read from one walk, and reading ``trace.final`` builds the
normal form from the chain's leaves in one more, so doubling the input
roughly doubles the wall time.  The same chains also exercise the
stack-safety guarantees: every walk below is iterative, so depth is
limited by memory, not by the interpreter's recursion limit.
"""

import time

from assocnf import (
    depth_rightmost,
    left_chain,
    normalize_shortest,
    right_chain,
    sigma,
    size,
)


def main():
    print("normalizing left chains with the shortest strategy:")
    print(f"  {'n':>9} {'steps':>9} {'seconds':>8}")
    previous = None
    for n in (25_000, 50_000, 100_000, 200_000, 400_000):
        chain = left_chain(n)
        t0 = time.perf_counter()
        trace = normalize_shortest(chain)
        final = trace.final
        elapsed = time.perf_counter() - t0
        assert final == right_chain(n)
        ratio = f"  ({elapsed / previous:.2f}x the previous n)" if previous else ""
        print(f"  {n:>9} {trace.step_count:>9} {elapsed:>8.3f}{ratio}")
        previous = elapsed

    print()
    print("measures stay iterative even a million nodes deep:")
    big = left_chain(1_000_000)
    t0 = time.perf_counter()
    print(f"  size   = {size(big)}")
    print(f"  sigma  = {sigma(big)}  (= n(n-1)/2, the longest-sequence length)")
    print(f"  d_rm   = {depth_rightmost(big)}")
    print(f"  computed in {time.perf_counter() - t0:.2f}s with no recursion")


if __name__ == "__main__":
    main()
