"""The finite-difference oracle that every gradient of the tape is checked against."""

import numpy as np

from emoforge.autodiff import constant, grad


def finite_diff_check(loss_fn, params, epsilon=1e-3):
    """Worst relative error of `grad` against central finite differences.

    Relative error uses |analytic - numeric| / max(|analytic|, |numeric|, 1e-8).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    theta = np.asarray(params, dtype=np.float64)
    analytic = grad(loss_fn, theta)

    def value_at(p):
        return float(loss_fn(constant(p)).data)

    worst_err = 0.0
    for i in range(theta.size):
        bump = np.zeros_like(theta)
        bump[i] = epsilon
        numeric = (value_at(theta + bump) - value_at(theta - bump)) / (2.0 * epsilon)
        denom = max(abs(analytic[i]), abs(numeric), 1e-8)
        worst_err = max(worst_err, abs(analytic[i] - numeric) / denom)
    return worst_err
