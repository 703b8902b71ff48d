"""Desk-scale thresholds of the advanced estimator's coverage checks.

``EstimatorBudget(kappa_override=ADVANCED_KAPPA,
theta_override=ADVANCED_THETA)`` runs the advanced estimator on the
fixed hardcore pairs of the acceptance tests (``tests/oracles.py``), whose
fields and parameter distances are drawn against these values.  They live
in the package because the benchmark's exact-tv workload imports them from
here; the checks themselves are tests.
"""

ADVANCED_KAPPA = 6e-3
ADVANCED_THETA = 5e-5
