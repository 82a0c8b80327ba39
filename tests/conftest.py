"""Shared fixtures: bracket corpora and perturbed starting points."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

import nilmetric as nm


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


@pytest.fixture(scope="session")
def sp6_basis():
    """Basis of the invariance algebra of the standard 6-dim symplectic
    structure at the identity metric (dimension 21)."""
    gamma = nm.standard_structure("symplectic", 6)
    return nm.structure_group_basis(gamma, nm.Metric.identity(6))


def basis_projection(gamma, S):
    """Reference for invariant_projection at the identity metric: S expanded
    against the orthonormal basis of the symmetric structure algebra, a
    constraint nullspace computed without the reflection formulas."""
    basis = nm.structure_algebra(gamma, nm.Metric.identity(gamma.dim)).sym_basis
    return sum(float(np.sum(S * B)) * B for B in basis)


def count_kernel_calls(monkeypatch, module: str) -> list:
    """Wrap the curvature kernel as `module` calls it; the returned list
    gets the coefficient bytes of each bracket it is called on."""
    calls = []
    kernel = nm.curvature.frame_curvature

    def counted(mu0, gamma, payload0):
        calls.append(mu0.coeffs.tobytes())
        return kernel(mu0, gamma, payload0)

    monkeypatch.setattr(f"{module}.frame_curvature", counted)
    return calls


def reference_direction(tensor, gamma):
    """Reference for descent_direction: minus the tangential part of
    delta_mu(Ric^gamma), with the radial part taken out through the inner
    product instead of the split Ric^gamma = c I + D."""
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
