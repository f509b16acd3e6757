"""Adaptive-quadrature reference for the order-1 kernel norm (test oracle).

hermkit computes every kernel norm from the beta identity; this numeric
route checks that identity against an independent computation.
"""

from __future__ import annotations

import numpy as np
from scipy import integrate

from hermkit.kernel import HermiteSpec, QuadResult


class QuadratureError(RuntimeError):
    """Raised when the order-1 reference quadrature misses its accuracy target."""


def l2_norm_sq_quad_k1(spec: HermiteSpec, t: float) -> QuadResult:
    """Adaptive-quadrature ||K_t||^2 for order 1.

    For order 1 the kernel integral has the exact antiderivative
    K_t(v) = ((t-v)^p - max(-v,0)^p)/p with p = H - 1/2, so the squared-norm
    integrand is evaluated in closed form and integrated adaptively over
    (-inf, 0] and [0, t] (the kink at 0 is a panel boundary).
    """
    p = spec.hurst - 0.5
    rel_tol = 1e-6

    def k_sq(vv: float) -> float:
        if vv >= t:
            return 0.0
        a = (t - vv) ** p
        b = (-vv) ** p if vv < 0 else 0.0
        return ((a - b) / p) ** 2

    val_neg, err_neg = integrate.quad(
        k_sq, -np.inf, 0.0, epsrel=rel_tol, epsabs=0.0, limit=400
    )
    val_pos, err_pos = integrate.quad(
        k_sq, 0.0, t, epsrel=rel_tol, epsabs=0.0, limit=400
    )
    value = val_neg + val_pos
    error = err_neg + err_pos
    if error > 50.0 * rel_tol * abs(value):
        raise QuadratureError(
            f"adaptive quadrature for the order-1 norm reported error {error:.3e} "
            f"against value {value:.6e}, exceeding the {rel_tol:.1e} target"
        )
    return QuadResult(value, error)
