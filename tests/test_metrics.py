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
    policy,
)
from qswitch_lab.metrics import total_variation

from conftest import mutual_information, random_ket, random_unitary


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
        psi = Ket(np.kron(ghz_ket(2, 2).amplitudes, basis_ket(2, 0).amplitudes))
        layout = SubsystemLayout((2, 2, 2), ("A", "B", "C"))
        assert ggm(psi, layout) < 1e-12

    def test_invariant_under_local_unitaries(self, rng):
        layout = SubsystemLayout((2, 2, 2), ("A", "B", "C"))
        product = Ket(np.kron(ghz_ket(2, 2).amplitudes, basis_ket(2, 0).amplitudes))
        for base in (ghz_ket(2, 3), product):
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
        # under a tightened spectral tolerance the product cuts of a ket of
        # squared norm 1 + 5e-13 put the GGM 5e-13 below 0, beyond it
        monkeypatch.setattr(policy, "spectral_tol", 1e-13)
        layout = SubsystemLayout((2, 2), ("A", "B"))
        psi = Ket.raw(np.sqrt(1 + 5e-13) * basis_ket(4, 0).amplitudes)
        with pytest.raises(ValueError, match="GGM .* outside \\[0, 1\\]"):
            ggm(psi, layout)
        assert ggm(Ket.raw(np.sqrt(1 + 0.5e-13) * basis_ket(4, 0).amplitudes), layout) == 0.0

    def test_zero_ket_is_out_of_range(self):
        # the zero ket keeps its index 0 in every cut's matrix, a zero
        layout = SubsystemLayout((2, 2, 2), ("A", "B", "C"))
        with pytest.raises(ValueError, match=r"coefficient 0\.0 out of \(0, 1\]"):
            ggm(Ket.raw(np.zeros(8)), layout)

    def test_top_coefficient_above_one_is_out_of_range(self):
        layout = SubsystemLayout((2, 2, 2), ("A", "B", "C"))
        psi = Ket.raw(np.sqrt(1 + 1e-9) * basis_ket(8, 0).amplitudes)
        with pytest.raises(ValueError, match=r"coefficient 1\.000000001 out of \(0, 1\]"):
            ggm(psi, layout)

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

    @staticmethod
    def stacks(rng, n_rows=5, n=3):
        """Two stacks of random states of one layout, and their rows."""
        from conftest import random_density

        layout = SubsystemLayout((n,), ("A",))
        rows = [[random_density(n, rng, layout) for _ in range(n_rows)] for _ in range(2)]
        return [DensityMatrix._of_block(layout, np.arange(n), np.array([r.block for r in states]))
                for states in rows], rows

    def test_stacks_equal_per_row_calls(self, rng):
        (s0, s1), (rows0, rows1) = self.stacks(rng)
        priors = rng.uniform(size=len(rows0))
        priors[0] = 0.5
        errs = helstrom_error(s0, s1, priors)
        alone = [helstrom_error(a, b, p) for a, b, p in zip(rows0, rows1, priors)]
        assert all(type(e) is float for e in alone)
        assert errs.tobytes() == np.array(alone).tobytes()

    @pytest.mark.parametrize("bad", [-0.1, 1.2, np.nan])
    def test_prior_out_of_range_in_any_row_raises(self, bad, rng):
        (s0, s1), (rows0, rows1) = self.stacks(rng, n_rows=3)
        with pytest.raises(ValueError, match=f"prior {bad} out of \\[0, 1\\]"):
            helstrom_error(s0, s1, np.array([0.5, bad, 0.25]))
        with pytest.raises(ValueError, match=f"prior {bad} out of \\[0, 1\\]"):
            helstrom_error(rows0[0], rows1[0], bad)

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


class TestTotalVariation:
    def test_half_the_l1_distance(self):
        assert total_variation([0.5, 0.5], [0.5, 0.5]) == 0.0
        assert total_variation([1.0, 0.0, 0.0], [0.0, 0.5, 0.5]) == 1.0

    @pytest.mark.parametrize("q", [[1.0], [0.5, 0.25, 0.25], [[0.5, 0.5]]])
    def test_distributions_of_another_shape_are_rejected(self, q):
        # numpy would broadcast [1.0] against [0.5, 0.5] and give 0.5
        with pytest.raises(ValueError, match="distributions differ in shape"):
            total_variation([0.5, 0.5], q)


class TestMutualInformation:
    """The direct-summation oracle that the private-dit decode tables read
    their bits from."""

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

    def test_negative_round_off_bounded_by_spectral_tol(self, monkeypatch):
        # this product pmf sums to exactly 1.0 and its mutual information
        # rounds to about -2.5e-16: within the default spectral tolerance it
        # reads 0.0, past a tighter one it raises
        p = np.outer([0.1, 0.9], [0.4, 0.6])
        assert p.sum() == 1.0
        assert mutual_information(p) == 0.0
        monkeypatch.setattr(policy, "spectral_tol", 1e-16)
        with pytest.raises(ValueError, match="mutual information is -2.4"):
            mutual_information(p)

    @pytest.mark.parametrize("scale", [1 + 5e-11, 1 + 0.9e-10, 1 - 0.9e-10])
    def test_sum_within_tolerance_is_normalized(self, scale):
        # a pmf the sum check admits is normalized before the logs: a product
        # pmf off 1 by up to the tolerance once gave about -1.44 x (sum - 1)
        # and raised; now it gives the bits of the pmf that sums to 1.0
        exact = np.outer([0.3, 0.7], [0.6, 0.4])
        assert exact.sum() == 1.0
        assert mutual_information(exact * scale) == mutual_information(exact)
        assert 0.0 <= mutual_information(exact * scale) < 1e-15

    def test_invalid_pmf(self):
        with pytest.raises(ValueError, match="sums"):
            mutual_information(np.array([[0.5, 0.2], [0.1, 0.1]]))
        with pytest.raises(ValueError, match="nonnegative"):
            mutual_information(np.array([[0.6, -0.1], [0.3, 0.2]]))
