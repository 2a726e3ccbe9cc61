"""Checking the subset-product criterion against the genus decision.

A set of square roots is rationalizable exactly when every nonempty subset
product has squarefree class degree at most 2.  One direction holds because
a rationalizing substitution for the set rationalizes every subset product;
for univariate radicands the converse is proven in the docstring of
sqrat.decide.  The scan draws random families, compares the criterion with
the exact genus decision, and records any disagreement verbatim: the
expected count is zero, reported rather than asserted, and an entry would
point at a bug.
"""

from sqrat import ScanParams, conjecture_scan, scan_trial_outcome, parse_expr

report = conjecture_scan(seed=42, trials=200,
                         params=ScanParams(max_m=3, max_factors=3,
                                           coeff_bound=5))
print(f"seed {report.seed}: {report.trials} trials, "
      f"{report.agreements} agreements, "
      f"{len(report.disagreements)} disagreements")
for entry in report.disagreements:
    print("  candidate counterexample:", entry)

# the same comparison on two hand-picked families
for texts in (["x-1", "x-2"], ["x", "x-1", "x-2"]):
    outcome = scan_trial_outcome([parse_expr(t) for t in texts])
    print(f"{texts}: criterion {'passes' if outcome['subset_pass'] else 'fails'}, "
          f"decision {outcome['verdict']}, agreement {outcome['agreement']}")
