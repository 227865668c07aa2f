"""Closed-form oracles for the necessity sweep and the protocol metrics.

For the resource sum_j sqrt(lambda_j) |j>_A |j>_C every term stays, after the
clone, in the decoherence-free span {|j>_A |j..j>_B |j>_C}, where the
coincidence channel acts as the identity.  So each printed metric has a
closed form that uses none of the library's linear algebra:

* the sweep metric (private-dit worst-case success, bipartite and GHZ mean
  fidelity) is (sum_j sqrt(lambda_j))^2 / d, and so is the GHZ worst-branch
  fidelity;
* the pre-measurement GGM of the transmitted state is 1 - max_j lambda_j;
* the d = 2 average output concurrence is 2 sqrt(lambda_0 lambda_1);
* the private-dit joint outcome distribution is
  p(m_B, m_C) = |sum_j sqrt(lambda_j) w^(j (x - m_B - m_C))|^2 / d^2 with
  w = exp(2 pi i / d);
* the controller's outcomes are uniform, and his reduced state does not
  depend on the message (pairwise trace distance 0);
* the transmitted GHZ state is sum_j sqrt(lambda_j) e^(i phi_j) |j..j>, a
  ket on d basis states.

The GHZ checks run up to the sizes the default guard admits at most, where
every state is held as its d-index support block.

By Cauchy-Schwarz (sum_j sqrt(lambda_j))^2 <= d, with equality only at the
uniform spectrum, which is the sweep's "perfect only at uniform" verdict.
"""

import cmath
import math

import numpy as np
import pytest

from qswitch_lab import (
    ResourceState,
    necessity_sweep,
    policy,
    privacy_report,
    run_bipartite_establishment,
    run_ghz_distribution,
    run_private_dit,
)
from qswitch_lab.cli import _parse_alpha

SWEEPS = [("private-dit", 1), ("bipartite", 1), ("ghz", 2)]


def closed_form_metric(lam) -> float:
    return sum(math.sqrt(x) for x in lam) ** 2 / len(lam)


def cli_grid() -> list[tuple[float, float]]:
    """The spectra of `sweep --d 2 --alpha 0:1:101`."""
    return _parse_alpha("0:1:101")


def dirichlet_spectra(d: int, count: int, seed: int) -> list[tuple[float, ...]]:
    rng = np.random.default_rng(seed)
    spectra = [tuple(float(x) for x in rng.dirichlet(np.ones(d))) for _ in range(count)]
    return spectra + [(1.0 / d,) * d]


def is_uniform(lam) -> bool:
    return max(abs(x - 1.0 / len(lam)) for x in lam) <= policy.structural_tol


@pytest.mark.parametrize("protocol,receivers", SWEEPS)
@pytest.mark.parametrize(
    "d,spectra",
    [(2, cli_grid()), (3, dirichlet_spectra(3, 12, seed=31))],
    ids=["d2-cli-grid", "d3-dirichlet"],
)
def test_sweep_metric_is_closed_form(protocol, receivers, d, spectra):
    table = necessity_sweep(protocol, d, spectra, n_receivers=receivers)
    assert len(table["rows"]) == len(spectra)
    for row, lam in zip(table["rows"], spectra):
        assert abs(row["metric"] - closed_form_metric(lam)) <= policy.structural_tol, lam
        # perfect exactly at the uniform spectrum, as Cauchy-Schwarz says
        assert row["is_perfect"] == is_uniform(lam), lam
    assert table["summary"]["perfect_only_at_uniform"]
    assert len(table["summary"]["perfect_rows"]) == 1


@pytest.mark.parametrize(
    "d,spectra", [(2, cli_grid()), (3, dirichlet_spectra(3, 12, seed=32))],
    ids=["d2-cli-grid", "d3-dirichlet"],
)
@pytest.mark.parametrize("receivers", [1, 2])
def test_pre_measurement_ggm_is_one_minus_top_weight(d, spectra, receivers):
    for lam in spectra:
        resource = ResourceState.from_schmidt(lam)
        if receivers == 1:
            t = run_bipartite_establishment(d, resource)
        else:
            t = run_ghz_distribution(d, receivers, resource)
        expected = 1.0 - max(lam)
        assert abs(t.metrics["pre_measurement_ggm"] - expected) <= policy.spectral_tol, lam


def test_d2_average_output_concurrence_is_closed_form():
    for lam in cli_grid():
        t = run_bipartite_establishment(2, ResourceState.from_schmidt(lam))
        expected = 2.0 * math.sqrt(lam[0] * lam[1])
        assert abs(t.metrics["average_output_concurrence"] - expected) <= policy.spectral_tol, lam


def test_closed_form_reaches_one_only_at_uniform():
    # the oracle itself: below 1 by more than the sweep's perfection margin
    # everywhere on the grids except at the uniform spectrum
    for lam in cli_grid() + dirichlet_spectra(3, 12, seed=31):
        value = closed_form_metric(lam)
        assert value <= 1.0 + policy.structural_tol
        assert (value >= 1.0 - 1e-9) == is_uniform(lam), lam


def closed_form_joint_pmf(lam, x: int) -> np.ndarray:
    """p(m_B, m_C) = |sum_j sqrt(lambda_j) w^(j (x - m_B - m_C))|^2 / d^2."""
    d = len(lam)
    pmf = np.zeros((d, d))
    for mb in range(d):
        for mc in range(d):
            amp = sum(
                math.sqrt(lam[j]) * cmath.exp(2j * math.pi * j * (x - mb - mc) / d)
                for j in range(d)
            )
            pmf[mb, mc] = abs(amp) ** 2 / d**2
    return pmf


GHZ_SIZES = [(2, 1), (2, 3), (3, 2), (3, 3), (4, 2)]


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_private_dit_distributions_and_privacy_are_closed_form(d):
    for lam in dirichlet_spectra(d, 4, seed=40 + d):
        resource = ResourceState.from_schmidt(lam)
        ensemble = [run_private_dit(d, x, resource) for x in range(d)]
        for x, t in enumerate(ensemble):
            joint = np.asarray(t.metrics["joint_pmf"])
            assert np.abs(joint - closed_form_joint_pmf(lam, x)).max() <= policy.structural_tol
            charlie = np.asarray(t.metrics["charlie_pmf"])
            assert np.abs(charlie - 1.0 / d).max() <= policy.structural_tol, (lam, x)
        report = privacy_report(ensemble)
        assert 0.0 <= report["max_pairwise_trace_distance"] <= policy.structural_tol, lam


@pytest.mark.parametrize("d,receivers", GHZ_SIZES)
def test_ghz_charlie_pmf_and_fidelity_min_are_closed_form(d, receivers):
    for lam in dirichlet_spectra(d, 4, seed=50 + 10 * d + receivers):
        t = run_ghz_distribution(d, receivers, ResourceState.from_schmidt(lam))
        charlie = np.asarray(t.metrics["charlie_pmf"])
        assert np.abs(charlie - 1.0 / d).max() <= policy.structural_tol, lam
        expected = closed_form_metric(lam)
        assert abs(t.metrics["fidelity_min"] - expected) <= policy.structural_tol, lam


GUARD_CEILING = [(2, 10), (3, 5), (4, 4), (5, 3)]


@pytest.mark.parametrize("d,receivers", GUARD_CEILING)
def test_ghz_at_the_guard_ceiling_is_closed_form(d, receivers):
    for lam in dirichlet_spectra(d, 2, seed=70 + 10 * d + receivers):
        t = run_ghz_distribution(d, receivers, ResourceState.from_schmidt(lam))
        expected = closed_form_metric(lam)
        assert abs(t.metrics["fidelity_mean"] - expected) <= policy.structural_tol, lam
        assert abs(t.metrics["fidelity_min"] - expected) <= policy.structural_tol, lam
        charlie = np.asarray(t.metrics["charlie_pmf"])
        assert np.abs(charlie - 1.0 / d).max() <= policy.structural_tol, lam
        assert t.metrics["maximally_entangled_all_branches"] == is_uniform(lam), lam
        ggm = 1.0 - max(lam)
        if receivers + 2 <= policy.max_ggm_parties:
            assert abs(t.metrics["pre_measurement_ggm"] - ggm) <= policy.spectral_tol, lam
            continue
        # past the bipartition cap the transcript records the skip; the GGM
        # is read here from the ket, whose every cut has top weight max_j lambda_j
        assert "pre_measurement_ggm" not in t.metrics
        assert t.metrics["pre_measurement_ggm_skipped"].startswith(f"{receivers + 2} parties")
        psi = t.stage("transmitted").to_ket().amplitudes
        span = np.arange(d) * ((psi.size - 1) // (d - 1))  # the index of |j..j>
        assert np.array_equal(np.flatnonzero(psi), span)
        weights = np.abs(psi[span]) ** 2
        assert np.abs(weights - np.asarray(lam)).max() <= policy.structural_tol, lam
        assert abs(1.0 - weights.max() - ggm) <= policy.structural_tol, lam
