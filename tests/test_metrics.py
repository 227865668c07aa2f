import numpy as np
import pytest

from qswitch_lab import (
    DensityMatrix,
    Ket,
    ResourceGuardError,
    SubsystemLayout,
    basis_ket,
    concurrence_2qubit,
    ggm,
    ghz_ket,
    helstrom_error,
    is_maximally_entangled,
    mutual_information,
    policy,
    tensor,
)

from conftest import random_ket, random_unitary


def two_qubit(psi_amps):
    return Ket(np.asarray(psi_amps)).density(SubsystemLayout((2, 2), ("A", "B")))


def spin_flip_oracle(rho):
    """Independent concurrence computation via the Hermitian R matrix."""
    sy = np.array([[0, -1j], [1j, 0]])
    yy = np.kron(sy, sy)
    rho_t = yy @ rho.conj() @ yy
    vals, vecs = np.linalg.eigh(rho)
    sqrt_rho = (vecs * np.sqrt(np.clip(vals, 0, None))) @ vecs.conj().T
    r2 = sqrt_rho @ rho_t @ sqrt_rho
    lams = np.sqrt(np.clip(np.linalg.eigvalsh(r2), 0, None))
    lams = np.sort(lams)[::-1]
    return max(0.0, lams[0] - lams[1] - lams[2] - lams[3])


class TestConcurrence:
    def test_bell_state(self):
        rho = ghz_ket(2, 2).density(SubsystemLayout((2, 2), ("A", "B")))
        assert abs(concurrence_2qubit(rho) - 1.0) < 1e-10

    def test_product_state(self):
        rho = two_qubit([1, 0, 0, 0])
        assert concurrence_2qubit(rho) < 1e-10

    def test_partially_entangled_matches_oracle(self):
        rho = two_qubit([np.sqrt(0.25), 0, 0, np.sqrt(0.75)])
        val = concurrence_2qubit(rho)
        assert abs(val - spin_flip_oracle(rho.entries)) < 1e-10
        assert abs(val - np.sqrt(3) / 2) < 1e-10  # 2 sqrt(0.25 * 0.75)

    def test_alpha_grid(self):
        for alpha in np.linspace(0, 1, 101):
            rho = two_qubit([np.sqrt(alpha), 0, 0, np.sqrt(1 - alpha)])
            assert abs(concurrence_2qubit(rho) - 2 * np.sqrt(alpha * (1 - alpha))) < 1e-10

    def test_wrong_dimension(self):
        rho = basis_ket(3, 0).density()
        with pytest.raises(ValueError, match="two qubits"):
            concurrence_2qubit(rho)


class TestGGM:
    def test_ghz3_qubits(self):
        layout = SubsystemLayout((2, 2, 2), ("A", "B", "C"))
        assert abs(ggm(ghz_ket(2, 3), layout) - 0.5) < 1e-12

    def test_ghz4_qutrits(self):
        layout = SubsystemLayout((3, 3, 3, 3), ("A", "B", "C", "D"))
        assert abs(ggm(ghz_ket(3, 4), layout) - 2 / 3) < 1e-12

    def test_product_across_one_cut(self):
        psi = tensor(ghz_ket(2, 2), basis_ket(2, 0))
        layout = SubsystemLayout((2, 2, 2), ("A", "B", "C"))
        assert ggm(psi, layout) < 1e-12

    def test_invariant_under_local_unitaries(self, rng):
        layout = SubsystemLayout((2, 2, 2), ("A", "B", "C"))
        for base in (ghz_ket(2, 3), tensor(ghz_ket(2, 2), basis_ket(2, 0))):
            ref = ggm(base, layout)
            for _ in range(50):
                us = [random_unitary(2, rng) for _ in range(3)]
                full = np.kron(np.kron(us[0], us[1]), us[2])
                rotated = Ket(full @ base.amplitudes)
                assert abs(ggm(rotated, layout) - ref) <= 1e-10

    def test_single_subsystem_rejected(self):
        with pytest.raises(ValueError, match="two subsystems"):
            ggm(basis_ket(2, 0), SubsystemLayout((2,), ("A",)))

    def test_drift_beyond_tolerance_raises(self, monkeypatch):
        # under a loosened structural tolerance a ket of norm 1 + 1e-9 is
        # accepted, and its product cuts put the GGM 2e-9 below 0
        monkeypatch.setattr(policy, "structural_tol", 1e-8)
        layout = SubsystemLayout((2, 2), ("A", "B"))
        psi = Ket(np.sqrt(1 + 2e-9) * basis_ket(4, 0).amplitudes)
        with pytest.raises(ValueError, match="GGM .* outside \\[0, 1\\]"):
            ggm(psi, layout)
        assert ggm(Ket(np.sqrt(1 + 0.5e-10) * basis_ket(4, 0).amplitudes), layout) == 0.0

    def test_party_guard(self):
        layout = SubsystemLayout((2,) * 7, tuple(f"P{i}" for i in range(7)))
        with pytest.raises(ResourceGuardError, match="cap"):
            ggm(ghz_ket(2, 7), layout)


class TestMaximallyEntangled:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_phased_family_all_maximal(self, d):
        layout = SubsystemLayout((d, d), ("A", "C"))
        for x in range(d):
            assert is_maximally_entangled(ghz_ket(d, 2, x), layout, ("A",))

    def test_skewed_state_rejected(self):
        layout = SubsystemLayout((2, 2), ("A", "B"))
        psi = Ket(np.array([np.sqrt(0.25), 0, 0, np.sqrt(0.75)]))
        assert not is_maximally_entangled(psi, layout, ("A",))

    def test_near_threshold_behaviour(self):
        layout = SubsystemLayout((2, 2), ("A", "B"))
        tol = 1e-10
        eps = 10 * tol
        lam = (1 / np.sqrt(2) + eps) ** 2
        psi = Ket.normalized([np.sqrt(lam), 0, 0, np.sqrt(max(1 - lam, 0))])
        assert not is_maximally_entangled(psi, layout, ("A",), tol=tol)

    def test_ghz3_across_single_party_cut(self):
        layout = SubsystemLayout((2, 2, 2), ("A", "B1", "B2"))
        assert is_maximally_entangled(ghz_ket(2, 3), layout, ("A",))


class TestHelstrom:
    def test_identical_states(self, rng):
        rho = two_qubit([1, 0, 0, 0])
        assert abs(helstrom_error(rho, rho, 0.5) - 0.5) < 1e-12

    def test_orthogonal_pure(self):
        a = basis_ket(2, 0).density()
        b = basis_ket(2, 1).density()
        assert helstrom_error(a, b, 0.5) < 1e-12

    def test_zero_vs_plus(self):
        a = basis_ket(2, 0).density()
        b = Ket.normalized([1, 1]).density()
        expected = (1 - 1 / np.sqrt(2)) / 2
        assert abs(helstrom_error(a, b, 0.5) - expected) < 1e-12

    def test_symmetry_and_bound(self, rng):
        from conftest import random_density

        for _ in range(50):
            a = random_density(3, rng)
            b = random_density(3, rng)
            p = rng.uniform()
            e1 = helstrom_error(a, b, p)
            e2 = helstrom_error(b, a, 1 - p)
            assert abs(e1 - e2) < 1e-12
            assert e1 <= min(p, 1 - p) + 1e-12

    def test_drift_beyond_tolerance_raises(self):
        # valid states just above the PSD floor put the error 1.8e-10 below 0
        e = 0.9e-10
        layout = SubsystemLayout((4,), ("A",))
        a = DensityMatrix(np.diag([1 + 3 * e, -e, -e, -e]), layout)
        b = DensityMatrix(np.diag([-e, -e, -e, 1 + 3 * e]), layout)
        with pytest.raises(ValueError, match="Helstrom error .* outside \\[0, 0.5\\]"):
            helstrom_error(a, b, 0.5)
        e = 0.4e-10
        a = DensityMatrix(np.diag([1 + 3 * e, -e, -e, -e]), layout)
        b = DensityMatrix(np.diag([-e, -e, -e, 1 + 3 * e]), layout)
        assert helstrom_error(a, b, 0.5) == 0.0

    def test_prior_out_of_range(self):
        a = basis_ket(2, 0).density()
        with pytest.raises(ValueError, match="prior"):
            helstrom_error(a, a, 1.5)


class TestMutualInformation:
    def test_product_pmf(self):
        px = np.array([0.3, 0.7])
        py = np.array([0.25, 0.25, 0.5])
        assert mutual_information(np.outer(px, py)) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_permutation_pmf(self, d):
        p = np.roll(np.eye(d), 1, axis=1) / d
        assert abs(mutual_information(p) - np.log2(d)) < 1e-12

    def test_known_binary_value(self):
        # direct-summation oracle
        p = np.array([[3 / 8, 1 / 8], [1 / 8, 3 / 8]])
        oracle = 0.0
        px = p.sum(axis=1)
        py = p.sum(axis=0)
        for i in range(2):
            for j in range(2):
                oracle += p[i, j] * np.log2(p[i, j] / (px[i] * py[j]))
        h_quarter = -(0.25 * np.log2(0.25) + 0.75 * np.log2(0.75))
        assert abs(oracle - (1 - h_quarter)) < 1e-12
        assert abs(mutual_information(p) - oracle) < 1e-12

    def test_invalid_pmf(self):
        with pytest.raises(ValueError, match="sums"):
            mutual_information(np.array([[0.5, 0.2], [0.1, 0.1]]))
        with pytest.raises(ValueError, match="nonnegative"):
            mutual_information(np.array([[0.6, -0.1], [0.3, 0.2]]))
