"""Two limit laws from one process, horizon by horizon.

Block parities alternate, so complete-block horizons come in two kinds:
three-valued (spike) blocks whose normalized sums settle on the
symmetrized-Poisson-like lattice law, and Gaussian blocks that go
normal.  This draws normalized full sums at both kinds of horizon,
scores each against NORMAL(0,1) and against the exact flat-copy law,
and prints the verdict.  The report takes the process as one
``ExactMoments``: its sums, its laws and its normalizers all read that
engine's parameters and memoized moments.

The even horizon sits at an astronomically large power of two; sampling
works there because only sub-horizon coefficient masses matter.
"""

import argparse

from cltlab import (ExactMoments, default_params, dichotomy_report,
                    ks_pass_bound)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=20_000)
    ap.add_argument("--seed", type=int, default=745)
    ap.add_argument("--kmax", type=int, default=40_000_000)
    ap.add_argument("--rho", type=float, default=4.0)
    args = ap.parse_args()

    params = default_params(kmax=args.kmax, rho=args.rho)
    print("blocks:")
    for b in params.blocks:
        print("  block %d  %-12s scales %d..%d  %s"
              % (b.index, b.parity.value, b.k_lo, b.k_hi,
                 "complete" if b.complete else "incomplete"))

    rep = dichotomy_report(ExactMoments(params), args.samples, args.seed)
    bound = ks_pass_bound(args.samples)
    print()
    print("%14s %12s %12s %12s %6s"
          % ("horizon", "ks_vs_law", "ks_vs_N01", "gate", "ok"))
    for r in rep.rows:
        print("%14s %12.5f %12.5f %12.5f %6s"
              % ("2^%d" % r.horizon_log2, r.ks_vs_oracle, r.ks_vs_normal,
                 r.ks_gate, r.oracle_pass))
    print()
    print("oracle gate bound %.5f at %d samples" % (bound, args.samples))
    print("normal-distance gap %.5f, margin %.3f" % (rep.gap, rep.margin))
    print("verdict: %s" % rep.verdict.value)
    if rep.required_count_estimate:
        print("(estimated samples to resolve: %d)"
              % rep.required_count_estimate)


if __name__ == "__main__":
    main()
