"""Sweep the summability statistics of the blocked stationary sum.

Walks a dyadic grid of horizons and prints, per horizon, the normalizer
b, the conditional norm, sigma, and the two rate statistics; then runs
the trend verdicts for flat weights against slow log-decay weights so
the qualitative difference is visible side by side.
"""

import argparse

from cltlab import (Condition, ExactMoments, WeightMode, default_params,
                    dyadic_grid)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kmax", type=int, default=20)
    ap.add_argument("--rho", type=float, default=4.0)
    ap.add_argument("--lo", type=int, default=4, help="low grid exponent")
    ap.add_argument("--hi", type=int, default=14, help="high grid exponent")
    args = ap.parse_args()

    grid = dyadic_grid(args.lo, args.hi)
    em = ExactMoments(default_params(kmax=args.kmax, rho=args.rho))

    print("flat weights, kmax=%d, rho=%g" % (args.kmax, args.rho))
    print("%8s %10s %10s %10s %10s %10s"
          % ("N", "b", "cond_norm", "sigma", "rate(log)", "flat_err"))
    for row in em.table_rows(grid):
        print("%8d %10.4f %10.4f %10.4f %10.4f %10.6f"
              % (row["N"], row["b"], row["cond_norm"], row["sigma"],
                 row["ratio_rate5"], row["lemma5_ratio"]))

    print()
    print("trend verdicts on the same grid:")
    for cond in (Condition.TAIL_SERIES, Condition.NORM_SERIES,
                 Condition.LOG_RATE, Condition.GROWTH_BOUND):
        rep = em.check_condition(cond, grid)
        print("  %-14s %s" % (rep.condition.value, rep.verdict.value))

    # the slow schedule pushes the log-rate statistic toward zero, which
    # flat weights never do -- the heart of the rate separation
    slow = ExactMoments(default_params(kmax=1 << 22, rho=args.rho,
                                       mode=WeightMode.INV_LOG))
    rep = slow.check_condition(Condition.LOG_RATE, grid)
    print()
    print("slow log-decay weights, same statistic:")
    print("  first %.4f -> last %.4f (ratio %.3f), verdict %s"
          % (rep.values[0], rep.values[-1],
             rep.values[-1] / rep.values[0], rep.verdict.value))


if __name__ == "__main__":
    main()
