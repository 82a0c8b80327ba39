"""Exact constructors for the worked bracket families, standard structure
tensors, and the graded hypercomplex ambient space; these anchor the
golden tests and the CLI presets.

Coefficients are derived once in closed form (rationals and radicals) and
evaluated in double precision at construction, so repeated calls are
bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .algebra_core import (
    Bracket,
    Metric,
    SkewTensor,
    as_tensor,
    combine,
    jacobi_residual,
    lower_central_dims,
)
from .errors import (
    DimensionParity,
    FamilyConstraint,
    InvalidBracket,
    NotNilpotent,
)
from .structures import (
    Structure,
    compatibility_residual,
    complex_structure,
    graded_ambient_basis,
    hypercomplex_structure,
    integrability_residual,
    integrable_nullspace,
    no_structure,
    symplectic_structure,
)


def standard_structure(kind: str, n: int) -> Structure:
    """The standard structure tensors in dimension n.

    symplectic: the antidiagonal pairing of the i-th and (n+1-i)-th basis
    vectors; complex: block-diagonal 2x2 rotations; hypercomplex: the
    standard quaternion triple in blocks of four.
    """
    if kind == "none":
        return no_structure(n)
    if kind == "symplectic":
        if n % 2:
            raise DimensionParity("symplectic structures need even dimension")
        m = n // 2
        omega = np.zeros((n, n))
        for i in range(n):
            omega[i, n - 1 - i] = -1.0 if i < m else 1.0
        return symplectic_structure(omega)
    if kind == "complex":
        if n % 2:
            raise DimensionParity("complex structures need even dimension")
        block = np.array([[0.0, -1.0], [1.0, 0.0]])
        J = np.kron(np.eye(n // 2), block)
        return complex_structure(J)
    if kind == "hypercomplex":
        if n % 4:
            raise DimensionParity(
                "hypercomplex structures need dimension divisible by 4"
            )
        J1b = np.array([
            [0.0, -1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, -1.0],
            [0.0, 0.0, 1.0, 0.0],
        ])
        J2b = np.array([
            [0.0, 0.0, -1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, -1.0, 0.0, 0.0],
        ])
        J3b = J1b @ J2b
        reps = n // 4
        J1 = np.kron(np.eye(reps), J1b)
        J2 = np.kron(np.eye(reps), J2b)
        J3 = np.kron(np.eye(reps), J3b)
        return hypercomplex_structure(J1, J2, J3)
    raise ValueError(f"unknown structure kind {kind!r}")


@dataclass(frozen=True)
class FamilyPoint:
    family_id: str
    params: dict
    bracket: object  # Bracket when the table is a nilpotent Lie bracket,
    # the raw SkewTensor otherwise (see validation)
    structure: Structure
    metric: Metric
    validation: dict

    @property
    def tensor(self) -> SkewTensor:
        return as_tensor(self.bracket)


def _validated_point(family_id: str, params: dict, tensor: SkewTensor,
                     structure: Structure, extra: dict = None) -> FamilyPoint:
    metric = Metric.identity(tensor.dim)
    lcs = lower_central_dims(tensor)
    validation = {
        "jacobi_residual": jacobi_residual(tensor),
        "integrability_residual": integrability_residual(structure, tensor),
        "compatibility_residual": compatibility_residual(structure, metric),
        "lcs_dims": lcs,
        "nilpotent": lcs[-1] == 0,
    }
    if extra:
        validation.update(extra)
    try:
        bracket = Bracket(tensor)
    except (InvalidBracket, NotNilpotent):
        bracket = tensor
    return FamilyPoint(family_id=family_id, params=dict(params),
                       bracket=bracket, structure=structure, metric=metric,
                       validation=validation)


def _finite_params(**params) -> dict:
    """The family parameters as floats; FamilyConstraint unless finite."""
    params = {key: float(value) for key, value in params.items()}
    if not all(map(math.isfinite, params.values())):
        raise FamilyConstraint(f"family parameters must be finite, got {params}")
    return params


def symplectic_family(a, b, c, d, e, f) -> FamilyPoint:
    """Six-parameter bracket table on dimension 6 with the standard
    symplectic form: the six slots feed mu(X1,X2) = a X3, mu(X1,X3) = b X4,
    mu(X1,X4) = c X5, mu(X1,X5) = d X6, mu(X2,X3) = e X5, mu(X2,X4) = f X6.

    The parameters must be finite (FamilyConstraint otherwise); nothing
    else is assumed.  The Jacobi and closedness residuals are computed and
    attached, never raised (the slice contains non-Lie tables).
    """
    params = _finite_params(a=a, b=b, c=c, d=d, e=e, f=f)
    slots = [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (2, 3, 5), (2, 4, 6)]
    tensor = SkewTensor.from_entries(
        6, [(*slot, value) for slot, value in zip(slots, params.values())])
    structure = standard_structure("symplectic", 6)
    return _validated_point("symplectic-family", params, tensor, structure)


def m26_point(x: float, y: float) -> FamilyPoint:
    """Critical point of the curvature functional on the symplectic family,
    parametrized by the ellipse x^2 + xy + y^2 = 1.

    The six slot values are derived in closed form from the critical-point
    equations of the restricted functional; every point satisfies Jacobi
    and closedness exactly and certifies Minimal with c = -7/4 and
    derivation diag(1..6)/2.  Raises FamilyConstraint off the ellipse.
    """
    x = float(x)
    y = float(y)
    constraint = x * x + x * y + y * y - 1.0
    if not abs(constraint) <= 1e-12:
        raise FamilyConstraint(
            f"(x, y) must satisfy x^2 + xy + y^2 = 1 (residual {constraint:.3e})"
        )
    q = x * y
    w = ((11.0 - q) - math.sqrt((q + 1.0) * (q + 49.0))) / (2.0 * (1.0 - q))
    beta = math.sqrt(w - 1.0)
    dc = math.sqrt(3.0 - w)
    phi = (3.0 - w) / beta
    h = math.sqrt(max(2.0 * w - 3.0 * phi * phi, 0.0))
    if x == y:
        alpha = 0.5 * phi
    else:
        alpha = 0.5 * (phi + math.copysign(h, x - y))
    gamma_c = phi - alpha
    point = symplectic_family(alpha, beta, gamma_c, dc, dc, phi)
    return replace(point, family_id="m26", params={"x": x, "y": y},
                   validation={**point.validation,
                               "constraint_residual": abs(constraint)})


def ellipse_points(count: int = 8) -> list:
    """(x, y) samples of the constraint ellipse with x, y >= 0:
    x = cos(theta) - sin(theta)/sqrt(3), y = 2 sin(theta)/sqrt(3),
    theta in [0, pi/3]."""
    out = []
    for k in range(count):
        theta = (math.pi / 3.0) * k / max(count - 1, 1)
        x = math.cos(theta) - math.sin(theta) / math.sqrt(3.0)
        y = 2.0 * math.sin(theta) / math.sqrt(3.0)
        out.append((x, y))
    return out


def complex_curve(t: float) -> FamilyPoint:
    """One-parameter curve of 2-step brackets on dimension 6, integrable
    for the standard complex structure at every t, with the scale
    s = sqrt(2 + t^2 + (2-t)^2) making the certificate exact.  Raises
    FamilyConstraint unless t is finite."""
    t = _finite_params(t=t)["t"]
    s = math.sqrt(2.0 + t * t + (2.0 - t) * (2.0 - t))
    entries = [
        (1, 3, 6, -t * s),
        (2, 3, 5, s),
        (1, 4, 5, s),
        (2, 4, 6, (2.0 - t) * s),
    ]
    tensor = SkewTensor.from_entries(6, entries)
    structure = standard_structure("complex", 6)
    return _validated_point("iwasawa-curve", {"t": t, "s": s}, tensor, structure)


def hypercomplex_family(r: float, s: float, t: float) -> FamilyPoint:
    """Three-parameter family of 2-step brackets on dimension 8, integrable
    for the standard hypercomplex triple at every (r, s, t).

    The minimality sphere r^2 + s^2 + t^2 - r - s - t = -1/2 is recorded
    as a residual, not enforced.  Raises FamilyConstraint unless the
    parameters are finite.
    """
    r, s, t = _finite_params(r=r, s=s, t=t).values()
    entries = [
        (1, 2, 6, r),
        (1, 3, 7, s),
        (1, 4, 8, t),
        (2, 3, 8, 1.0 - t),
        (2, 4, 7, -(1.0 - s)),
        (3, 4, 6, 1.0 - r),
    ]
    tensor = SkewTensor.from_entries(8, entries)
    structure = standard_structure("hypercomplex", 8)
    surface = r * r + s * s + t * t - r - s - t + 0.5
    return _validated_point(
        "hc-family", {"r": r, "s": s, "t": t}, tensor, structure,
        extra={"surface_residual": abs(surface)},
    )


def hc_g3_point() -> FamilyPoint:
    """The equal-parameter point r = s = t = (3 + sqrt(3))/6 on the
    minimality sphere."""
    g = (3.0 + math.sqrt(3.0)) / 6.0
    return replace(hypercomplex_family(g, g, g), family_id="hc-g3")


def surface_points(count: int = 5) -> list:
    """(r, s, t) samples of the minimality sphere with 1/2 <= r <= s <= t:
    r = 1/2, s = (1 + sin(theta))/2, t = (1 + cos(theta))/2 for theta
    between 0 and pi/4."""
    out = []
    for k in range(count):
        theta = (math.pi / 4.0) * k / max(count - 1, 1)
        out.append((0.5, 0.5 + 0.5 * math.sin(theta), 0.5 + 0.5 * math.cos(theta)))
    return out


def heisenberg() -> FamilyPoint:
    """The 3-dimensional bracket mu(X1, X2) = X3 with no structure."""
    tensor = SkewTensor.from_entries(3, [(1, 2, 3, 1.0)])
    return _validated_point("heisenberg", {}, tensor, no_structure(3))


@dataclass(frozen=True)
class HypercomplexAmbient:
    basis: list            # 24 coordinate tensors of the graded space
    integrable_basis: list  # orthonormal span of the integrable subspace
    abelian_basis: list    # orthonormal span of the abelian subspace
    structure: Structure

    def sample(self, rng, abelian: bool = False) -> SkewTensor:
        """Gaussian draw projected onto the (abelian-)integrable subspace."""
        basis = self.abelian_basis if abelian else self.integrable_basis
        return combine(rng.standard_normal(len(basis)), basis)


def hypercomplex_ambient(n1: int = 4, n2: int = 4) -> HypercomplexAmbient:
    """The graded bracket space of the standard hypercomplex splitting with
    bases of its integrable and abelian-integrable subspaces (dimensions
    24, 16 and 12 for the standard 4 + 4 splitting)."""
    structure = standard_structure("hypercomplex", n1 + n2)
    basis = graded_ambient_basis(n1, n2)
    integrable = [combine(col, basis)
                  for col in integrable_nullspace(structure, basis).T]
    abelian = [combine(col, basis)
               for col in integrable_nullspace(structure, basis, True).T]
    return HypercomplexAmbient(basis=basis, integrable_basis=integrable,
                               abelian_basis=abelian, structure=structure)


_CATALOG = {
    "m26": {
        "description": "critical symplectic point on the ellipse x^2+xy+y^2=1",
        "defaults": {"x": 1.0, "y": 0.0},
        "build": lambda p: m26_point(p["x"], p["y"]),
    },
    "iwasawa-curve": {
        "description": "complex 2-step curve, parameter t (t=1 of Heisenberg type)",
        "defaults": {"t": 1.5},
        "build": lambda p: complex_curve(p["t"]),
    },
    "hc-g3": {
        "description": "equal-parameter hypercomplex point on the minimality sphere",
        "defaults": {},
        "build": lambda p: hc_g3_point(),
    },
    "heisenberg": {
        "description": "dimension-3 Heisenberg bracket, no structure",
        "defaults": {},
        "build": lambda p: heisenberg(),
    },
}


def catalog_list() -> list:
    """Available preset ids with their default parameters."""
    return [
        {"id": key, "description": item["description"],
         "defaults": dict(item["defaults"])}
        for key, item in sorted(_CATALOG.items())
    ]


def catalog_get(family_id: str, params: dict = None) -> FamilyPoint:
    """Construct a catalog preset, overriding default parameters by name."""
    if family_id not in _CATALOG:
        known = ", ".join(sorted(_CATALOG))
        raise KeyError(f"unknown catalog id {family_id!r} (known: {known})")
    item = _CATALOG[family_id]
    merged = dict(item["defaults"])
    for key, value in (params or {}).items():
        if key not in merged:
            raise KeyError(
                f"catalog id {family_id!r} takes no parameter {key!r}"
            )
        merged[key] = float(value)
    return item["build"](merged)
