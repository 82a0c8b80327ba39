"""Shared fixtures: bracket corpora and perturbed starting points."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm, null_space

import nilmetric as nm
from nilmetric.algebra_core import (_from_frame, as_tensor, combine,
                                    skew_basis, svd_nullspace, sym_basis)
from nilmetric.flows import _certified
from nilmetric.structures import _transported_payload


def graded_two_step(n, n1, rng, density=0.5):
    """Random 2-step bracket: first block pairs map into the complement."""
    entries = []
    for i in range(1, n1 + 1):
        for j in range(i + 1, n1 + 1):
            for k in range(n1 + 1, n + 1):
                if rng.uniform() < density:
                    entries.append((i, j, k, rng.standard_normal()))
    if not entries:
        entries = [(1, 2, n, 1.0)]
    return nm.SkewTensor.from_entries(n, entries)


def filiform_chain(n, scale=1.0):
    """Maximally-nilpotent chain [e1, ek] = e_{k+1}."""
    entries = [(1, k, k + 1, scale) for k in range(2, n)]
    return nm.SkewTensor.from_entries(n, entries)


@pytest.fixture(scope="session")
def bracket_corpus():
    """108 nilpotent brackets over dims 3..8: graded 2-step samples,
    scaled chains, and conjugated copies of both."""
    rng = np.random.default_rng(20240817)
    corpus = []
    for n in range(3, 9):
        n1 = max(2, n - max(1, n // 3))
        for _ in range(6):
            corpus.append(graded_two_step(n, n1, rng))
        for s in (0.5, 1.0, 2.0, 5.0):
            corpus.append(filiform_chain(n, s))
        for _ in range(8):
            g = np.eye(n) + 0.25 * rng.standard_normal((n, n))
            base = graded_two_step(n, n1, rng)
            corpus.append(nm.act(g, base))
    return corpus


def _frame_constraint_rows(gamma, payload0, B):
    """Constraint vector whose vanishing says B belongs to the structure
    algebra in the orthonormal frame: B^T J + J B = 0 for the symplectic
    map, B J - J B = 0 for each complex map."""
    symplectic = gamma.tag == "symplectic"
    return np.array([B.T @ J0 + J0 @ B if symplectic else B @ J0 - J0 @ B
                     for J0 in payload0]).ravel()


def algebra_reference(gamma, G=None):
    """Reference for nm.structure_algebra, computed without the reflection
    formulas: each part is an orthonormal SVD nullspace of the constraint
    rows on sym_basis(n) or skew_basis(n) in the G-orthonormal frame,
    conjugated back (G defaults to the identity)."""
    G = nm.Metric.identity(gamma.dim) if G is None else G
    payload0 = _transported_payload(gamma, G)
    parts = []
    for part in (sym_basis(gamma.dim), skew_basis(gamma.dim)):
        rows = np.array(
            [_frame_constraint_rows(gamma, payload0, B) for B in part]).T
        ns = svd_nullspace(rows)
        parts.append([_from_frame(A, G) for A in combine(ns.T, part)])
    return nm.StructureAlgebra(*parts)


def group_reference(gamma):
    """The reference basis of the whole structure algebra at the identity
    metric, the symmetric part then the skew part; tests draw their random
    structure-group moves from it."""
    algebra = algebra_reference(gamma)
    return algebra.sym_basis + algebra.skew_basis


@pytest.fixture(scope="session")
def sp6_basis():
    """Basis of the invariance algebra of the standard 6-dim symplectic
    structure at the identity metric (dimension 21)."""
    return group_reference(nm.standard_structure("symplectic", 6))


def moment_map_reference(mu):
    """Reference for nm.moment_map, which is 8 Ric from the curvature
    kernel: the moment map m(mu) = -4 M1 + 2 M2 at the identity metric,
    with M1 = mu(p,i,j) mu(q,i,j) and M2 = mu(i,j,p) mu(i,j,q) summed by
    einsum over the full array."""
    T = as_tensor(mu).full()
    M1 = np.einsum("pij,qij->pq", T, T, optimize=True)
    M2 = np.einsum("ijp,ijq->pq", T, T, optimize=True)
    return -4.0 * M1 + 2.0 * M2


def basis_projection(gamma, S):
    """Reference for invariant_projection at the identity metric: S expanded
    against the orthonormal basis of the symmetric structure algebra from
    algebra_reference, which does not use the reflection formulas."""
    basis = algebra_reference(gamma).sym_basis
    return sum(float(np.sum(S * B)) * B for B in basis)


def two_step_reference(mu, gamma=None):
    """Reference for certify_minimal on a 2-step bracket at the identity
    metric, in closed form: with Ric^gamma = diag(p I, q I) on the
    complement of the center and on the center, c = 2p - q and
    D = diag((q-p) I, 2(q-p) I), a derivation of every 2-step bracket.
    Ric^gamma comes from the moment map and basis references; asserts
    that the bracket is 2-step and that both blocks are scalar.
    Returns (c, D)."""
    T = as_tensor(mu).full()
    n = T.shape[0]
    scale = np.abs(T).max()
    assert scale > 0.0
    assert np.abs(np.einsum("ijl,lkm->ijkm", T, T)).max() <= 1e-10 * scale**2
    center = null_space(T.transpose(0, 2, 1).reshape(n * n, n))
    first = null_space(center.T)
    ric = moment_map_reference(mu) / 8.0
    if gamma is not None:
        ric = basis_projection(gamma, ric)
    p = np.trace(first.T @ ric @ first) / first.shape[1]
    q = np.trace(center.T @ ric @ center) / center.shape[1]
    P1, P2 = first @ first.T, center @ center.T
    assert np.abs(ric - p * P1 - q * P2).max() <= 1e-10 * max(1.0, np.abs(ric).max())
    return 2.0 * p - q, (q - p) * P1 + 2.0 * (q - p) * P2


def fd_defect_jacobian(point, basis, P, eps=1e-7):
    """Reference for flows._defect_jacobian: one forward difference of the
    certified defect per basis element, each a step to
    unit(act(expm(eps B), T)) and a fresh certificate there."""
    tensor, dvec = point.tensor, point.defect.coeffs.ravel()
    J = np.empty((dvec.size, len(basis)))
    for i, B in enumerate(basis):
        moved = nm.act(expm(eps * B), tensor)
        moved = _certified(moved.scaled(1.0 / moved.norm()), P)
        J[:, i] = (moved.defect.coeffs.ravel() - dvec) / eps
    return J


def count_kernel_calls(monkeypatch, module: str) -> list:
    """Wrap the curvature kernel as `module` calls it; the returned list
    gets the pair rows' bytes of each bracket it is called on."""
    calls = []
    kernel = nm.curvature.frame_curvature

    def counted(C, F, P):
        calls.append(C.tobytes())
        return kernel(C, F, P)

    monkeypatch.setattr(f"{module}.frame_curvature", counted)
    return calls


def reference_direction(tensor, gamma):
    """Reference for the descent direction -delta_mu(D): minus the
    tangential part of delta_mu(Ric^gamma), with the radial part taken out
    through the inner product instead of the split Ric^gamma = c I + D."""
    ric_gamma = nm.invariant_ricci(tensor, nm.Metric.identity(tensor.dim),
                                   gamma, allow_scale=True)
    delta = nm.coboundary(tensor, ric_gamma)
    radial = nm.inner(delta, tensor) / tensor.norm2()
    return delta.plus(tensor, -radial).scaled(-1.0)


def perturbed_m26(sp6_basis, rng, scale=0.3):
    """Move the critical symplectic point along a random group direction."""
    coeffs = rng.standard_normal(len(sp6_basis))
    xi = sum(c * B for c, B in zip(coeffs, sp6_basis))
    xi *= scale / np.linalg.norm(xi) * np.sqrt(len(sp6_basis))
    return nm.act(expm(xi), nm.m26_point(1.0, 0.0).tensor)


BENCH = Path(__file__).resolve().parents[1] / "bench"


def bench_module(name: str):
    """bench/<name>.py loaded by path; the benchmark is not a package."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def coarse_flow_start():
    """(m26 point, G0) of the benchmark's coarse CLI flow: m26 at a metric
    perturbed by exp(xi), xi drawn from default_rng(0) at scale 0.25 as in
    bench/workloads.py (perturbation and build_cli)."""
    oracle = bench_module("oracle")
    p = nm.m26_point(1.0, 0.0)
    basis = oracle.full_algebra_basis(p.structure.tag, p.structure.payload, 6)
    rng = np.random.default_rng(0)
    xi = sum(c * B for c, B in zip(rng.standard_normal(len(basis)), basis))
    xi *= 0.25 * np.sqrt(len(basis)) / np.linalg.norm(xi)
    phi = oracle.expm(xi)
    return p, nm.Metric(phi.T @ phi)
