"""Shared numerical tolerances and environment-driven configuration."""

import os

from .errors import ParseError

# Relative Jacobi tolerance for accepting user-supplied structure constants.
TOL_JACOBI = 1e-10

# Singular values below TOL_NULL * sigma_max count as zero in rank and
# nullspace computations.  Problems here are dense and of dimension <= 16,
# so this leaves ~6 digits of headroom over double precision.
TOL_NULL = 1e-10

# Default relative residual below which a certificate verdict is Minimal.
TOL_CERT = 1e-8

# Default compatibility / integrability acceptance threshold.
TOL_COMPAT = 1e-8

# Default tolerance for declaring two fingerprints distinct.
TOL_DISTINGUISH = 1e-6

# Condition number above which basis changes trigger a warning.
COND_WARN = 1e12

ENV_TOL = "NILMETRIC_TOL"


def certification_tolerance() -> float:
    """Certificate tolerance, honoring the NILMETRIC_TOL environment variable.

    Read at call time so tests and batch drivers can adjust it per run.
    Raises ParseError when the variable is set but is not a positive number.
    """
    raw = os.environ.get(ENV_TOL)
    if raw is None:
        return TOL_CERT
    try:
        value = float(raw)
    except ValueError:
        raise ParseError(f"{ENV_TOL}={raw!r} is not a number") from None
    if not value > 0:
        raise ParseError(f"{ENV_TOL}={raw!r} must be positive")
    return value
