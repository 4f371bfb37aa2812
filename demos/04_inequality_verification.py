"""Measuring both sides of the smoothness inequalities on the corpus.

Each report carries a left side, a right side, and either an explicit
constant (hard checks, with a pass verdict under the tolerance policy)
or an empirical constant (the observed ratio, with refinement
stability).  This script runs one example of each report type at a
desk-friendly resolution and prints a small summary table; the CLI
command `mixsmooth verify --suite all` runs the same machinery over
the whole corpus.
"""

import math

from mixsmooth import (
    Box,
    VerifierSettings,
    constant_bound_report,
    equivalence_report,
    estimate_constants,
    get_function,
    marchaud_report,
    superadditivity_report,
    taylor_report,
    whitney_report,
)

settings = VerifierSettings(grid=32, h_samples=9, seed=0)
box = Box.unit(2)
fn = get_function("sin_prod_2d")


def show(rep):
    const = rep.explicit_constant
    tag = f"explicit C = {const}" if const is not None else (
        f"empirical C = {rep.empirical_constant:.4f}"
        if rep.empirical_constant is not None
        else "vacuous"
    )
    verdict = {True: "pass", False: "FAIL", None: "recorded"}[rep.passed]
    print(f"  {rep.check:28s} left {rep.left:10.6f}  right {rep.right:10.6f}  {tag:24s} {verdict}")


print(f"function: {fn.name}, order (2,2), p = 1/2 unless noted\n")

rep_low, rep_ratio = whitney_report(fn, (2, 2), 0.5, box, settings)
print("two-sided approximation vs total modulus:")
show(rep_low)
show(rep_ratio)

hard, ratio = equivalence_report(fn, (2, 2), (0.5, 0.5), 0.5, box, settings)
print("mean vs sup modulus:")
show(hard)
show(ratio)

print("subdivision superadditivity (2x2 split, per subset then total):")
for rep in superadditivity_report(fn, (2, 2), (0.125, 0.125), 0.5, box, 2, settings):
    show(rep)

print("lower-order modulus from the step integral of a higher one (p = 2):")
show(marchaud_report(fn, (1, 2), (2, 2), 0, (0.125, 0.125), 2.0, box, settings))

print("Taylor remainder vs mixed-derivative bracket (p = inf):")
show(taylor_report(fn, (2, 2), math.inf, (0.25, 0.125, 0.0625), settings))

print("best-constant bound by first-order moduli (p = 1/2):")
show(constant_bound_report(fn, 0.5, box, settings))

# Aggregate the upper-Whitney ratio over part of the corpus and watch
# its stability under one grid refinement; one call sweeps each
# function once per grid for every exponent.
names = ["exp_sum_2d", "sin_prod_2d", "holder_half_2d", "spline_prod_2d"]
for agg in estimate_constants(names, (2, 2), [2.0, math.inf], grids=[24, 48], seed=7):
    print(f"\nupper-Whitney ratio aggregation at p = {agg['p']}:")
    for level in agg["levels"]:
        print(f"  grid {level['grid']:3d}: max ratio {level['max_ratio']:.4f}")
    print(f"  relative change across the doubling: {agg['deltas'][0]['max_ratio_delta']:.4f}")
