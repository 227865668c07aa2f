import math
import re

import numpy as np
import pytest

from qswitch_lab import (
    DensityMatrix,
    Ket,
    KrausChannel,
    SubsystemLayout,
    apply_coincidence,
    apply_phases,
    basis_ket,
    clone_fan_out,
    fidelity_with_ket,
    fourier_basis,
    fourier_ket,
    ghz_ket,
    partial_trace,
    policy,
    projective_measure,
    schmidt_coefficients,
    tensor,
    trace_distance,
    vacuum_extend,
)
from qswitch_lab import linalg
from qswitch_lab.linalg import _SUPPORT_MIN_DIM, _min_eigenvalue, _stacked, _sum_left, _trimmed
from qswitch_lab.numeric import PSD_FLOOR, STRUCTURAL_TOL

from conftest import (
    assert_rows_equal, kraus_apply, naive_partial_trace, random_density, random_ket, random_unitary,
)


class TestTypes:
    def test_ket_requires_unit_norm(self):
        with pytest.raises(ValueError, match="norm"):
            Ket(np.array([1.0, 1.0]))
        k = Ket.normalized(np.array([1.0, 1.0]))
        assert abs(np.linalg.norm(k.amplitudes) - 1.0) < 1e-15
        with pytest.raises(ValueError, match="ket norm is 0.0, not 1"):  # no amplitudes
            Ket(np.array([]))
        with pytest.raises(ValueError, match="zero vector"):
            Ket.normalized([])

    def test_ket_raw_allows_subnormalized(self):
        k = Ket.raw(np.array([0.5, 0.0]))
        assert abs(np.linalg.norm(k.amplitudes) - 0.5) < 1e-15

    def test_density_matrix_invariants_enforced(self):
        layout = SubsystemLayout((2,), ("A",))
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]), layout)
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2), layout)
        with pytest.raises(ValueError, match="semidefinite"):
            DensityMatrix(np.diag([1.5, -0.5]), layout)

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1j * np.nan, 1j * np.inf])
    @pytest.mark.parametrize("where", ["diagonal", "off-diagonal"])
    def test_density_matrix_rejects_non_finite_entries(self, bad, where):
        m = np.eye(4, dtype=complex) / 4
        if where == "diagonal":
            m[1, 1] = bad
        else:
            m[0, 2] = bad
            m[2, 0] = np.conj(bad)
        with pytest.raises(ValueError, match="not Hermitian"):
            DensityMatrix(m, SubsystemLayout((2, 2), ("A", "B")))

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("amps", [[np.nan, 0.0], [1.0, 1j * np.nan], [np.inf, 0.0]])
    def test_ket_rejects_non_finite_amplitudes(self, amps):
        with pytest.raises(ValueError, match="ket norm"):
            Ket(np.array(amps))
        with pytest.raises(ValueError, match="ket norm"):
            Ket.normalized(np.array(amps))

    def test_layout_rejects_duplicates_and_mismatch(self):
        with pytest.raises(ValueError, match="duplicate"):
            SubsystemLayout((2, 2), ("A", "A"))
        layout = SubsystemLayout((2, 3), ("A", "B"))
        with pytest.raises(ValueError, match="does not match"):
            DensityMatrix(np.eye(5) / 5, layout)

    def test_entries_are_immutable(self):
        rho = basis_ket(2, 0).density()
        with pytest.raises(ValueError):
            rho.entries[0, 0] = 0.3


def padded_state(n, support, eigenvalues, rng):
    """Hermitian n x n matrix, zero outside `support`, with the given spectrum there."""
    q = random_unitary(len(support), rng)
    block = (q * np.asarray(eigenvalues)) @ q.conj().T
    m = np.zeros((n, n), dtype=complex)
    m[np.ix_(support, support)] = block
    return m


def support_min_eigenvalue(m):
    """The minimum eigenvalue as construction finds it, on the support block."""
    n = m.shape[0]
    return _min_eigenvalue(_trimmed(np.arange(n), m, n)[1], n)


@pytest.mark.parametrize(
    "call",
    [
        lambda rho: partial_trace(rho, ["A", "A"]),
        lambda rho: clone_fan_out(rho, "A", ("A",)),
        lambda rho: apply_coincidence(rho, ("A", "A", "C")),
    ],
    ids=["partial_trace", "clone_fan_out", "apply_coincidence"],
)
def test_repeated_labels_rejected(call):
    ghz3 = ghz_ket(2, 3).density(SubsystemLayout((2, 2, 2), ("A", "B", "C")))
    with pytest.raises(ValueError, match="repeated labels"):
        call(ghz3)


class TestSupportPSD:
    @pytest.mark.parametrize("n", [4, 16, 17, 40, 64])
    def test_padded_blocks_match_full_decomposition(self, n, rng):
        layout = SubsystemLayout((n,), ("A",))
        for trial in range(12):
            k = int(rng.integers(1, n + 1))
            support = np.sort(rng.choice(n, size=k, replace=False))
            if k == 1:
                lam = [1.0]
            else:
                lowest = (0.0, -1e-12, -1e-6, 0.5 / k)[trial % 4]
                rest = rng.random(k - 1)
                lam = [lowest, *(rest * (1.0 - lowest) / rest.sum())]
            m = padded_state(n, support, lam, rng)
            full_min = float(np.linalg.eigvalsh(m)[0])
            assert abs(support_min_eigenvalue(m) - full_min) < 1e-14
            if full_min < PSD_FLOOR:
                with pytest.raises(ValueError, match="not positive semidefinite"):
                    DensityMatrix(m, layout)
            else:
                DensityMatrix(m, layout)

    def test_negative_block_in_large_zero_padding_raises(self, rng):
        support = np.array([3, 150, 299])
        m = padded_state(300, support, [-1e-6, 0.4, 0.6 + 1e-6], rng)
        with pytest.raises(ValueError, match="not positive semidefinite"):
            DensityMatrix(m, SubsystemLayout((300,), ("A",)))

    def test_zero_diagonal_with_nonzero_row_stays_in_support(self):
        # [[0, b], [b, 1]] has a negative eigenvalue; dropping index 0 for its
        # zero diagonal would leave only the eigenvalue 1
        m = np.zeros((20, 20), dtype=complex)
        m[5, 5] = 1.0
        m[0, 5] = m[5, 0] = 0.1
        with pytest.raises(ValueError, match="not positive semidefinite"):
            DensityMatrix(m, SubsystemLayout((20,), ("A",)))

    def test_full_support_state(self, rng):
        rho = random_density(32, rng, SubsystemLayout((2, 16), ("A", "B")))
        assert np.all(rho.entries != 0)
        assert support_min_eigenvalue(rho.entries) == float(np.linalg.eigvalsh(rho.entries)[0])
        m = padded_state(32, np.arange(32), np.r_[-1e-6, np.full(31, (1 + 1e-6) / 31)], rng)
        with pytest.raises(ValueError, match="not positive semidefinite"):
            DensityMatrix(m, SubsystemLayout((32,), ("A",)))

    def test_purity_is_trace_of_square(self, rng):
        rho = random_density(12, rng)
        assert abs(rho.purity() - np.trace(rho.entries @ rho.entries).real) < 1e-15
        assert basis_ket(20, 7).density().purity() == 1.0

    def test_purity_is_the_row_major_sum_of_squared_moduli(self, rng):
        # the oracle adds |rho_ij|^2 over the support block row by row, from
        # +0.0, in Python floats
        def oracle(rho):
            total = 0.0
            for z in rho.block.reshape(-1).tolist():
                total += z.real * z.real + z.imag * z.imag
            return total

        states = [random_density(n, rng) for n in (1, 2, 7, 12, 16, 33)]
        states.append(DensityMatrix(padded_state(40, np.array([3, 9, 17, 38]),
                                                 np.array([0.1, 0.2, 0.3, 0.4]), rng),
                                    SubsystemLayout((40,), ("A",))))
        states.append(ghz_ket(3, 3, 2).density(SubsystemLayout((3, 3, 3), ("A", "B", "C"))))
        for rho in states:
            assert rho.purity() == oracle(rho)


def full_matrix_verdict(m):
    """The whole-matrix check, in the constructor's order: error text or None."""
    herm = np.abs(m - m.conj().T).max()
    if not herm <= STRUCTURAL_TOL:
        return f"not Hermitian: max asymmetry {herm:.3e}"
    if not abs(m.trace() - 1.0) <= STRUCTURAL_TOL:
        return "trace is"
    min_eig = float(np.linalg.eigvalsh(m)[0])
    if not min_eig >= PSD_FLOOR:
        return f"not positive semidefinite: min eigenvalue {min_eig:.3e}"
    return None


def constructor_verdict(m):
    try:
        DensityMatrix(m, SubsystemLayout((m.shape[0],), ("A",)))
    except ValueError as exc:
        return str(exc)
    return None


def random_padded_state(n, rng, k=6):
    """A valid rank-k state, zero outside k random indices, and those indices."""
    support = np.sort(rng.choice(n, size=k, replace=False))
    lam = rng.random(k)
    return padded_state(n, support, lam / lam.sum(), rng), support


class TestSupportChecks:
    """Hermiticity, trace and positivity decided on the support block."""

    @pytest.mark.parametrize("n", [17, 40, 300])
    @pytest.mark.parametrize("case", ["valid", "asymmetric", "one-sided", "trace", "negative"])
    def test_same_verdict_and_residual_as_full_matrix(self, n, case, rng):
        m, support = random_padded_state(n, rng)
        i, j = support[1], support[4]
        if case == "asymmetric":
            m[i, j] += 1e-9
        elif case == "one-sided":
            # the only nonzero of column k, whose row is zero: k joins the
            # support through its column
            k = next(k for k in range(n) if k not in support)
            m[i, k] = 1e-9
            support = np.sort(np.append(support, k))
        elif case == "trace":
            m[i, i] += 1e-9
        elif case == "negative":
            m = padded_state(n, support, [-1e-6, 0.1, 0.2, 0.2, 0.2, 0.3 + 1e-6], rng)
        found, block = _trimmed(np.arange(n), m, n)
        assert np.array_equal(found, support)
        assert np.abs(block - block.conj().T).max() == np.abs(m - m.conj().T).max()
        expected = full_matrix_verdict(m)
        got = constructor_verdict(m)
        if expected == "trace is":  # the repr of the trace may differ in its last bit
            assert got.startswith(expected)
        else:
            assert got == expected
        assert (got is None) == (case == "valid")

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1j * np.nan])
    @pytest.mark.parametrize("where", ["inside", "outside"])
    def test_non_finite_entries_rejected(self, bad, where, rng):
        m, support = random_padded_state(40, rng)
        k = support[2] if where == "inside" else next(
            i for i in range(40) if i not in support
        )
        m[k, k] = bad
        with pytest.raises(ValueError, match="not Hermitian"):
            DensityMatrix(m, SubsystemLayout((40,), ("A",)))

    @pytest.mark.parametrize("n", [4, 17, 300])
    def test_zero_matrix_fails_on_trace(self, n):
        with pytest.raises(ValueError, match="trace is .*0j.*, not 1"):
            DensityMatrix(np.zeros((n, n)), SubsystemLayout((n,), ("A",)))

    def test_support_kept_only_above_threshold(self, rng):
        small = DensityMatrix(np.diag([1.0] + [0.0] * 15), SubsystemLayout((16,), ("A",)))
        assert np.array_equal(small.support, np.arange(16)) and small.block.shape == (16, 16)
        m, support = random_padded_state(17, rng)
        rho = DensityMatrix(m, SubsystemLayout((17,), ("A",)))
        assert np.array_equal(rho.support, support)
        assert np.array_equal(rho.block, m[np.ix_(support, support)])
        assert np.array_equal(rho.entries, m)
        assert np.array_equal(random_density(20, rng).support, np.arange(20))  # full support


def assert_same_ket_up_to_phase(a, b):
    overlap = np.vdot(b, a)
    assert abs(abs(overlap) - 1.0) <= policy.spectral_tol
    assert np.abs(a - (overlap / abs(overlap)) * b).max() <= policy.spectral_tol


class TestToKet:
    @pytest.mark.parametrize("n,k", [(8, 3), (17, 1), (17, 5), (40, 7), (300, 4)])
    def test_support_ket_matches_full_eigh(self, n, k, rng):
        for _ in range(5):
            support = np.sort(rng.choice(n, size=k, replace=False))
            psi = np.zeros(n, dtype=complex)
            psi[support] = random_ket(k, rng).amplitudes
            rho = DensityMatrix(np.outer(psi, psi.conj()), SubsystemLayout((n,), ("A",)))
            got = rho.to_ket().amplitudes
            full = np.linalg.eigh(rho.entries)[1][:, -1]
            assert_same_ket_up_to_phase(got, full)
            assert_same_ket_up_to_phase(got, psi)
            if n > _SUPPORT_MIN_DIM:  # the ket is embedded in exact zeros
                assert np.all(got[np.setdiff1d(np.arange(n), support)] == 0)

    def test_mixed_state_has_no_ket(self, rng):
        m, _ = random_padded_state(40, rng)
        with pytest.raises(ValueError, match="mixed"):
            DensityMatrix(m, SubsystemLayout((40,), ("A",))).to_ket()


class TestRelabel:
    @pytest.mark.parametrize("padded", [False, True], ids=["full-support", "padded"])
    def test_shares_entries_and_support_without_a_check(self, padded, rng, monkeypatch):
        layout = SubsystemLayout((2, 20), ("A", "B"))
        if padded:
            rho = DensityMatrix(random_padded_state(40, rng)[0], layout)
            assert rho.support.size < rho.dim
        else:
            rho = random_density(40, rng, layout)
        calls = []
        real = DensityMatrix.__post_init__
        monkeypatch.setattr(DensityMatrix, "__post_init__", lambda dm: calls.append(dm) or real(dm))
        out = rho.relabel({"A": "Z"})
        assert calls == []  # no DensityMatrix check ran
        assert out.block is rho.block
        assert out.support is rho.support
        assert out.layout == SubsystemLayout((2, 20), ("Z", "B"))
        assert rho.layout.labels == ("A", "B")  # the original keeps its labels

    def test_rejects_a_mapping_that_duplicates_a_label(self, rng):
        rho = random_density(4, rng, SubsystemLayout((2, 2), ("A", "B")))
        with pytest.raises(ValueError, match="duplicate"):
            rho.relabel({"A": "B"})


def assert_read_only(ket):
    with pytest.raises(ValueError, match="read-only"):
        ket.amplitudes[0] = 0.0
    with pytest.raises(AttributeError):
        ket.amplitudes = np.zeros(ket.dim)


class TestCachedConstants:
    @pytest.mark.parametrize("build,args", [(basis_ket, (3, 1))], ids=["basis_ket"])
    def test_ket_built_once_and_read_only(self, build, args):
        ket = build(*args)
        assert build(*args) is ket
        assert_read_only(ket)

    @pytest.mark.parametrize("args", [(3, 2), (2, 3, 1)], ids=["ghz_ket", "ghz_ket-phased"])
    def test_ghz_ket_built_per_call_and_read_only(self, args):
        # a dense target grows as d^parties, so no process keeps one
        ket = ghz_ket(*args)
        again = ghz_ket(*args)
        assert again is not ket and np.array_equal(again.amplitudes, ket.amplitudes)
        assert_read_only(ket)

    def test_ghz_ket_amplitudes_are_the_loops_bits(self):
        # the oracle builds each amplitude with a scalar np.exp, as ghz_ket
        # did before it took one array expression
        for d in range(2, 17):
            for parties in (1, 2, 3):
                stride = (d**parties - 1) // (d - 1)
                for x in range(-d, 2 * d):
                    v = np.zeros(d**parties, dtype=complex)
                    for j in range(d):
                        v[j * stride] = np.exp(2j * np.pi * j * x / d) / np.sqrt(d)
                    assert ghz_ket(d, parties, x).amplitudes.tobytes() == v.tobytes()

    def test_fourier_basis_built_once_and_read_only(self):
        fb = fourier_basis(4)
        assert fourier_basis(4) is fb
        assert isinstance(fb, tuple) and len(fb) == 4
        for ket in fb:
            with pytest.raises(ValueError, match="read-only"):
                ket.amplitudes[0] = 0.0


class TestTensor:
    def test_basis_bookkeeping(self):
        out = tensor(basis_ket(2, 0), basis_ket(2, 1))
        expected = np.zeros(4)
        expected[1] = 1.0
        assert np.allclose(out.amplitudes, expected)

    def test_identity_case(self):
        out = tensor(np.eye(2), np.eye(3))
        assert np.array_equal(out, np.eye(6))

    def test_uniform_superposition(self):
        plus = Ket.normalized([1.0, 1.0])
        out = tensor(plus, plus)
        assert np.allclose(out.amplitudes, np.full(4, 0.5))

    def test_associative_exactly_on_representable_entries(self):
        # entries whose products are exact binary fractions: bit-identical
        a = Ket.raw([0.5, -0.5])
        b = Ket.raw([1.0, 0.25])
        c = Ket.raw([0.0, -1.0])
        left = tensor(tensor(a, b), c)
        right = tensor(a, tensor(b, c))
        assert np.array_equal(left.amplitudes, right.amplitudes)

    def test_associative_within_ulps_generically(self, rng):
        a, b, c = (random_ket(2, rng) for _ in range(3))
        left = tensor(tensor(a, b), c)
        right = tensor(a, tensor(b, c))
        assert np.abs(left.amplitudes - right.amplitudes).max() <= 4 * np.finfo(float).eps

    def test_mixed_types_rejected(self):
        with pytest.raises(TypeError):
            tensor(basis_ket(2, 0), np.eye(2))


class TestPartialTrace:
    def test_bell_marginal_is_maximally_mixed(self):
        layout = SubsystemLayout((2, 2), ("A", "C"))
        rho = ghz_ket(2, 2).density(layout)
        red = partial_trace(rho, ("A",))
        assert np.allclose(red.entries, np.eye(2) / 2, atol=1e-12)

    def test_product_factorization(self, rng):
        rho = random_density(2, rng, SubsystemLayout((2,), ("A",)))
        sigma = random_density(3, rng, SubsystemLayout((3,), ("B",)))
        joint = tensor(rho, sigma)
        red = partial_trace(joint, ("A",))
        assert np.abs(red.entries - rho.entries).max() < 1e-12

    def test_ghz3_two_party_marginal_matches_oracle(self):
        layout = SubsystemLayout((2, 2, 2), ("A", "B1", "B2"))
        rho = ghz_ket(2, 3).density(layout)
        red = partial_trace(rho, ("B1", "B2"))
        oracle = naive_partial_trace(rho.entries, (2, 2, 2), keep=[1, 2])
        assert np.abs(red.entries - oracle).max() < 1e-14
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[3, 3] = 0.5
        assert np.allclose(red.entries, expected, atol=1e-12)

    def test_random_states_match_oracle(self, rng):
        layout = SubsystemLayout((2, 3, 2), ("A", "B", "C"))
        for _ in range(5):
            rho = random_density(12, rng, layout)
            red = partial_trace(rho, ("B",))
            oracle = naive_partial_trace(rho.entries, (2, 3, 2), keep=[1])
            assert np.abs(red.entries - oracle).max() < 1e-12

    def test_trace_preserved_and_order_kept(self, rng):
        layout = SubsystemLayout((2, 2, 3), ("X", "Y", "Z"))
        rho = random_density(12, rng, layout)
        red = partial_trace(rho, ("Z", "X"))  # set semantics; layout order kept
        assert red.layout.labels == ("X", "Z")
        assert abs(np.trace(red.entries) - 1.0) < 1e-12

    def test_unknown_label_rejected(self, rng):
        rho = random_density(4, rng, SubsystemLayout((2, 2), ("A", "B")))
        with pytest.raises(ValueError, match="unknown label"):
            partial_trace(rho, ("Q",))


class TestFourier:
    def test_d2_columns(self):
        assert np.allclose(fourier_ket(2, 0).amplitudes, np.array([1, 1]) / np.sqrt(2))
        assert np.allclose(fourier_ket(2, 1).amplitudes, np.array([1, -1]) / np.sqrt(2))

    def test_d3_phases(self):
        w = np.exp(2j * np.pi / 3)
        assert np.allclose(
            fourier_ket(3, 1).amplitudes, np.array([1, w, w**2]) / np.sqrt(3)
        )

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 7])
    def test_orthonormal_basis(self, d):
        mat = np.column_stack([k.amplitudes for k in fourier_basis(d)])
        gram = mat.conj().T @ mat
        assert np.abs(gram - np.eye(d)).max() < 1e-12

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            fourier_ket(0, 0)
        with pytest.raises(ValueError):
            fourier_ket(3, 3)


class TestSchmidt:
    def test_bell_state(self):
        layout = SubsystemLayout((2, 2), ("A", "C"))
        coeffs = schmidt_coefficients(ghz_ket(2, 2), layout, ("A",))
        assert np.allclose(coeffs, [1 / np.sqrt(2)] * 2, atol=1e-12)

    def test_product_state(self):
        layout = SubsystemLayout((2, 2), ("A", "B"))
        coeffs = schmidt_coefficients(tensor(basis_ket(2, 0), basis_ket(2, 0)), layout, ("A",))
        assert abs(coeffs[0] - 1.0) < 1e-12
        assert abs(coeffs[1]) < 1e-12

    def test_prepared_schmidt_form(self):
        layout = SubsystemLayout((2, 2), ("A", "B"))
        psi = Ket(np.array([np.sqrt(0.25), 0, 0, np.sqrt(0.75)]))
        coeffs = schmidt_coefficients(psi, layout, ("A",))
        assert np.allclose(coeffs, [np.sqrt(0.75), np.sqrt(0.25)], atol=1e-12)

    def test_squares_sum_to_one_and_match_svd(self, rng):
        layout = SubsystemLayout((2, 3, 2), ("A", "B", "C"))
        for _ in range(10):
            psi = random_ket(12, rng)
            coeffs = schmidt_coefficients(psi, layout, ("A", "C"))
            assert abs((coeffs**2).sum() - 1.0) < 1e-12
            # the amplitude tensor (A, B, C) as the (A, C | B) matrix
            mat = psi.amplitudes.reshape(2, 3, 2).transpose(0, 2, 1).reshape(4, 3)
            assert np.array_equal(coeffs, np.linalg.svd(mat, full_matrices=False)[1])
            assert np.all(np.diff(coeffs) <= 0)

    def test_coefficients_are_read_only(self):
        layout = SubsystemLayout((2, 2), ("A", "C"))
        coeffs = schmidt_coefficients(ghz_ket(2, 2), layout, ("A",))
        with pytest.raises(ValueError, match="read-only"):
            coeffs[0] = 0.0

    def test_coefficients_invariant_under_local_unitaries(self, rng):
        layout = SubsystemLayout((3, 4), ("A", "B"))
        for _ in range(20):
            psi = random_ket(12, rng)
            base = schmidt_coefficients(psi, layout, ("A",))
            u = random_unitary(3, rng)
            v = random_unitary(4, rng)
            rotated = Ket(np.kron(u, v) @ psi.amplitudes)
            rot = schmidt_coefficients(rotated, layout, ("A",))
            assert np.abs(base - rot).max() < 1e-10

    def test_empty_side_rejected(self):
        layout = SubsystemLayout((2, 2), ("A", "B"))
        with pytest.raises(ValueError, match="nonempty"):
            schmidt_coefficients(ghz_ket(2, 2), layout, ("A", "B"))

    def test_bad_arguments_rejected(self):
        layout = SubsystemLayout((2, 2), ("A", "B"))
        with pytest.raises(ValueError, match="does not match"):
            schmidt_coefficients(ghz_ket(2, 3), layout, ("A",))
        with pytest.raises(ValueError, match="unknown labels"):
            schmidt_coefficients(ghz_ket(2, 2), layout, ("Z",))


class TestMeasurement:
    def test_bell_fourier_branches(self):
        # direct projector-arithmetic oracle: p = <f_m|_C rho |f_m>_C trace
        layout = SubsystemLayout((2, 2), ("A", "C"))
        rho = ghz_ket(2, 2).density(layout)
        branches = projective_measure(rho, fourier_basis(2), "C")
        plus = Ket.normalized([1, 1])
        minus = Ket.normalized([1, -1])
        assert [b.outcome for b in branches] == [0, 1]
        for b, expect in zip(branches, (plus, minus)):
            assert abs(b.probability - 0.5) < 1e-12
            assert fidelity_with_ket(b.state, expect) > 1 - 1e-12

    def test_eigenstate_measurement(self):
        layout = SubsystemLayout((2, 2), ("A", "C"))
        rho = tensor(basis_ket(2, 0), basis_ket(2, 0)).density(layout)
        branches = projective_measure(rho, [basis_ket(2, 0), basis_ket(2, 1)], "C")
        assert abs(branches[0].probability - 1.0) < 1e-12
        assert branches[1].probability == 0.0 and branches[1].state is None

    def test_ghz3_fourier_gives_phased_bell_pairs(self):
        layout = SubsystemLayout((2, 2, 2), ("A", "B", "C"))
        rho = ghz_ket(2, 3).density(layout)
        branches = projective_measure(rho, fourier_basis(2), "C")
        for b in branches:
            assert abs(b.probability - 0.5) < 1e-12
        assert fidelity_with_ket(branches[0].state, ghz_ket(2, 2, 0)) > 1 - 1e-12
        assert fidelity_with_ket(branches[1].state, ghz_ket(2, 2, 1)) > 1 - 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_completeness_on_random_states(self, d, rng):
        layout = SubsystemLayout((d, d), ("A", "C"))
        fb = fourier_basis(d)
        for _ in range(1000):
            rho = random_density(d * d, rng, layout)
            branches = projective_measure(rho, fb, "C")
            probs = [b.probability for b in branches]
            assert all(p >= 0 for p in probs)
            assert abs(sum(probs) - 1.0) < 1e-10

    def test_non_orthonormal_basis_rejected(self):
        layout = SubsystemLayout((2, 2), ("A", "C"))
        rho = ghz_ket(2, 2).density(layout)
        skew = [basis_ket(2, 0), Ket.normalized([1.0, 0.3])]
        with pytest.raises(ValueError, match="Gram deviation"):
            projective_measure(rho, skew, "C")

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_basis_rejected_before_any_branch(self, bad, monkeypatch):
        rho = ghz_ket(2, 2).density(SubsystemLayout((2, 2), ("A", "C")))
        built = []
        check = DensityMatrix.__post_init__
        monkeypatch.setattr(DensityMatrix, "__post_init__", lambda dm: built.append(dm) or check(dm))
        basis = [Ket.raw([bad, 0.0]), Ket.raw([0.0, 1.0])]
        with pytest.raises(ValueError, match="measurement basis is not orthonormal"):
            projective_measure(rho, basis, "C")
        assert built == []


class TestLeftToRightSum:
    """``_sum_left`` adds from +0.0 in order, where numpy's own ``sum`` over a
    contiguous axis regroups its terms at 8 and at 128."""

    @pytest.mark.parametrize("n", [7, 8, 9, 127, 128, 129])
    def test_equals_a_python_loop(self, n, rng):
        terms = rng.normal(size=(4, n)) * 10.0 ** rng.integers(-12, 12, size=(4, n))
        terms[:, ::3] = 0.0  # zeros between the terms
        terms[1, 1::3] = -0.0
        pairs = n // 2 * 2
        terms[2, 1:pairs:2] = -terms[2, 0:pairs:2]  # partial sums that cancel to zero
        for row, got in zip(terms, _sum_left(terms)):
            total = 0.0
            for x in row.tolist():
                total += x
            assert float(got).hex() == total.hex()
        assert _sum_left(terms[0]).shape == ()

    def test_a_sum_of_zeros_is_positive_zero(self):
        for terms in ([-0.0], [-0.0, -0.0], [0.0, -0.0], [-0.0] * 130, [1.5, -1.5], [-1.5, 1.5]):
            got = float(_sum_left(np.array(terms)))
            assert got == 0.0 and np.copysign(1.0, got) == 1.0, terms

    @pytest.mark.parametrize("n", [7, 8, 9, 127, 128, 129])
    def test_ket_norm_equals_a_python_loop(self, n, rng):
        # Ket.normalized divides by the root of the squared moduli added in
        # order, so a ket's bits do not depend on how BLAS groups a norm
        a = (rng.normal(size=n) + 1j * rng.normal(size=n)) * 10.0 ** rng.integers(-6, 6, size=n)
        a[::3] = 0.0
        total = 0.0
        for z in a.tolist():
            total += z.real * z.real + z.imag * z.imag
        want = a / math.sqrt(total)
        got = Ket.normalized(a).amplitudes
        for g, w in zip(got.tolist(), want.tolist()):
            assert (g.real.hex(), g.imag.hex()) == (w.real.hex(), w.imag.hex())


def ordered_norm(a):
    """The norm rule of ``Ket`` and ``vacuum_extend``: the root of the
    squared moduli added in order."""
    return math.sqrt(_sum_left(a.real * a.real + a.imag * a.imag))


class TestOrderedNormRule:
    """A ket's norm check and ``vacuum_extend`` decide on ``ordered_norm``,
    past 128 amplitudes too, where numpy's pairwise ``sum`` regroups the
    terms: a verdict at the tolerance is the same on every CPU, and the
    message gives that norm to the bit."""

    @staticmethod
    def amplitudes(size, norm, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=size) + 1j * rng.normal(size=size)
        return a * (norm / ordered_norm(a))

    @pytest.mark.parametrize("size", [129, 300, 1000])
    def test_ket_message_gives_the_ordered_norm(self, size):
        bad = self.amplitudes(size, 1 + 2e-12, size)
        message = re.escape(f"ket norm is {ordered_norm(bad)!r}, not 1")
        with pytest.raises(ValueError, match=message):
            Ket(bad)
        # a stack raises the first failing row's message
        good = self.amplitudes(size, 1.0, size + 1)
        with pytest.raises(ValueError, match=message):
            linalg._check_norms(np.stack([good, bad, 2 * good]))

    @pytest.mark.parametrize("size", [129, 300])
    def test_verdict_at_the_tolerance_is_the_ordered_one(self, size):
        verdicts = set()
        for k in range(-32, 33):  # steps of one ulp of 1.0 across the tolerance
            a = self.amplitudes(size, 1 + STRUCTURAL_TOL + k * 2.0**-52, size)
            ok = abs(ordered_norm(a) - 1.0) <= STRUCTURAL_TOL
            verdicts.add(ok)
            if ok:
                Ket(a)
            else:
                with pytest.raises(ValueError, match="ket norm"):
                    Ket(a)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("size", [129, 300])
    def test_vacuum_extend_message_gives_the_ordered_norm(self, size):
        a = self.amplitudes(size, 1 + 2 * policy.spectral_tol, size)
        base = KrausChannel((a / ordered_norm(a))[:, None, None])  # scalar operators
        with pytest.raises(ValueError, match=re.escape(f"vector norm is {ordered_norm(a)!r}, not 1")):
            vacuum_extend(base, a)


class TestDistances:
    def test_self_distance_zero(self, rng):
        rho = random_density(4, rng, SubsystemLayout((4,), ("A",)))
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure(self):
        a = basis_ket(2, 0).density()
        b = basis_ket(2, 1).density()
        assert abs(trace_distance(a, b) - 1.0) < 1e-12

    def test_zero_vs_plus(self):
        # eigenvalue oracle: rho - sigma has eigenvalues +-1/2 * sqrt(2)
        a = basis_ket(2, 0).density()
        b = Ket.normalized([1, 1]).density()
        eigs = np.linalg.eigvalsh(a.entries - b.entries)
        oracle = 0.5 * np.abs(eigs).sum()
        assert abs(oracle - 1 / np.sqrt(2)) < 1e-12
        assert abs(trace_distance(a, b) - 1 / np.sqrt(2)) < 1e-12

    def test_symmetry_and_mismatch(self, rng):
        a = random_density(3, rng, SubsystemLayout((3,), ("A",)))
        b = random_density(3, rng, SubsystemLayout((3,), ("A",)))
        assert abs(trace_distance(a, b) - trace_distance(b, a)) < 1e-14
        c = random_density(2, rng, SubsystemLayout((2,), ("A",)))
        with pytest.raises(ValueError, match="mismatch"):
            trace_distance(a, c)

    def test_trace_distance_drift_beyond_tolerance_raises(self):
        # valid states whose eigenvalues sit just above the PSD floor put
        # the trace distance 1.8e-10 above 1
        e = 0.9e-10
        layout = SubsystemLayout((2,), ("A",))
        rho = DensityMatrix(np.diag([1 + e, -e]), layout)
        sigma = DensityMatrix(np.diag([-e, 1 + e]), layout)
        with pytest.raises(ValueError, match="trace distance .* outside"):
            trace_distance(rho, sigma)
        small = DensityMatrix(np.diag([1 + 0.4 * e, -0.4 * e]), layout)
        assert trace_distance(small, DensityMatrix(np.diag([-0.4 * e, 1 + 0.4 * e]), layout)) == 1.0

    def test_fidelity_drift_beyond_tolerance_raises(self):
        e = 0.9e-10
        rho = DensityMatrix(np.diag([1 + 2 * e, -e, -e]), SubsystemLayout((3,), ("A",)))
        with pytest.raises(ValueError, match="fidelity .* outside"):
            fidelity_with_ket(rho, basis_ket(3, 0))
        assert fidelity_with_ket(rho, basis_ket(3, 1)) == 0.0

    @pytest.mark.parametrize("hi", [1.0, 0.5, np.inf])
    def test_clamp_is_min_max_for_scalars_and_arrays(self, hi):
        tol = policy.spectral_tol
        inside = [0.0, -0.0, -tol, -0.5 * tol, 0.3, hi, hi + 0.5 * tol, hi + tol]
        inside = [v for v in inside if v != np.inf]
        for v in inside:
            out = linalg._clamp(np.float64(v), "x", hi)
            assert type(out) is float and repr(out) == repr(min(max(v, 0.0), hi))
        out = linalg._clamp(np.array(inside), "x", hi)
        assert repr(out.tolist()) == repr([min(max(v, 0.0), hi) for v in inside])
        for bad in (-2 * tol, hi + 2 * tol, np.nan):
            if bad == np.inf:
                continue
            with pytest.raises(ValueError, match=f"x is {bad!r}, outside"):
                linalg._clamp(bad, "x", hi)
            with pytest.raises(ValueError, match=f"x is {bad!r}, outside"):
                linalg._clamp(np.array([0.5 * hi if hi < np.inf else 1.0, bad, -1.0]), "x", hi)


class TestEmbeddedUnitaries:
    """The tests' dense Kraus oracle ``kraus_apply`` against explicit
    ``np.kron`` embeddings."""

    def test_acts_on_addressed_factor_only(self, rng):
        layout = SubsystemLayout((2, 3, 2), ("A", "B", "C"))
        rho = random_density(12, rng, layout)
        u = random_unitary(3, rng)
        out = kraus_apply(u[None], rho, ("B",))
        full = np.kron(np.kron(np.eye(2), u), np.eye(2))
        assert np.abs(out.entries - full @ rho.entries @ full.conj().T).max() < 1e-12

    def test_non_adjacent_labels_round_trip(self, rng):
        layout = SubsystemLayout((2, 3, 2), ("A", "B", "C"))
        rho = random_density(12, rng, layout)
        u = random_unitary(4, rng)
        out = kraus_apply(u[None], rho, ("C", "A"))  # reversed, non-adjacent
        assert abs(np.trace(out.entries) - 1.0) < 1e-12
        back = kraus_apply(u.conj().T[None], out, ("C", "A"))
        assert np.abs(back.entries - rho.entries).max() < 1e-12
        # C is the more significant factor of u = sum t[c', a', c, a] |c' a'><c a|,
        # which embeds as sum t[c', a', c, a] |a'><a| (x) I_B (x) |c'><c|
        t, e = u.reshape(2, 2, 2, 2), np.eye(2)  # t[c', a', c, a]
        full = sum(t[c2, a2, c, a] * np.kron(np.kron(np.outer(e[a2], e[a]), np.eye(3)),
                                             np.outer(e[c2], e[c]))
                   for c2, a2, c, a in np.ndindex(t.shape))
        assert np.abs(out.entries - full @ rho.entries @ full.conj().T).max() < 1e-12

    def test_factor_order_of_acting_labels(self, rng):
        # a controlled-phase between C (control) and A (target) with the
        # labels addressed as (C, A) must equal the explicit embedding
        layout = SubsystemLayout((2, 2, 2), ("A", "B", "C"))
        rho = random_density(8, rng, layout)
        cz = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
        out = kraus_apply(cz[None], rho, ("C", "A"))
        full = np.zeros((8, 8), dtype=complex)
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    i = (a * 2 + b) * 2 + c
                    full[i, i] = -1.0 if (c == 1 and a == 1) else 1.0
        assert np.abs(out.entries - full @ rho.entries @ full.conj().T).max() < 1e-12


def stack_of(states):
    """One stack of states that share a layout and a support, unchecked."""
    rho = states[0]
    return DensityMatrix._unchecked(rho.layout, rho.support, np.array([s.block for s in states]))


class TestStacks:
    """A stack of states of one layout and support runs through each step's
    one kernel; every row gets the verdict, the branches and the bits of a
    run of its own."""

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("n", [4, 17])
    @pytest.mark.parametrize("case", ["nan", "trace", "negative"])
    def test_failing_row_raises_its_own_message(self, n, case, rng):
        support = np.arange(n) if n <= _SUPPORT_MIN_DIM else np.array([1, 4, 6, 9, 12, 16])
        rows = [padded_state(n, support, np.full(support.size, 1.0 / support.size), rng)
                for _ in range(3)]
        bad = rows[1]
        if case == "nan":
            bad[support[2], support[2]] = np.nan
        elif case == "trace":
            bad[support[0], support[0]] += 1e-9
        else:
            bad[:] = padded_state(n, support, [-1e-6] + [(1 + 1e-6) / (support.size - 1)]
                                  * (support.size - 1), rng)
        with pytest.raises(ValueError) as alone:
            DensityMatrix(bad, SubsystemLayout((n,), ("A",)))
        blocks = np.array([m[np.ix_(support, support)] for m in rows])
        with pytest.raises(ValueError) as stacked:
            DensityMatrix._of_block(SubsystemLayout((n,), ("A",)), support, blocks)
        assert str(stacked.value) == str(alone.value)

    @pytest.mark.parametrize("case", ["trace", "negative"])
    def test_a_failing_row_on_part_of_the_union_raises_its_own_message(self, case, rng):
        n = 20
        layout = SubsystemLayout((n,), ("A",))
        good = padded_state(n, np.arange(12), rng.dirichlet(np.ones(12)), rng)
        on = np.array([1, 2, 3, 5, 6, 8, 9, 10, 14, 17])  # part of the union only
        spectrum = rng.dirichlet(np.ones(on.size))
        if case == "negative":
            spectrum[0], spectrum[1] = -1e-6, spectrum[1] + spectrum[0] + 1e-6
        bad = padded_state(n, on, spectrum, rng)
        if case == "trace":
            bad[on, on] *= 1 + 1e-8
        with pytest.raises(ValueError) as alone:
            DensityMatrix(bad, layout)
        union = np.union1d(np.arange(12), on)
        blocks = np.array([m[np.ix_(union, union)] for m in (good, bad)])
        with pytest.raises(ValueError) as stacked:
            DensityMatrix._of_block(layout, union, blocks)
        assert str(stacked.value) == str(alone.value)

    def test_first_failing_row_decides(self, rng):
        # row 1 fails on positivity, row 2 on Hermiticity: row 1's message
        n = 4
        good = padded_state(n, np.arange(n), [0.25] * 4, rng)
        negative = padded_state(n, np.arange(n), [-1e-6, 0.3, 0.3, 0.4 + 1e-6], rng)
        asymmetric = good.copy()
        asymmetric[0, 1] += 1e-9
        with pytest.raises(ValueError, match="not positive semidefinite"):
            DensityMatrix._of_block(SubsystemLayout((n,), ("A",)), np.arange(n),
                                    np.array([good, negative, asymmetric]))

    def test_branch_null_in_one_row_only_raises(self):
        layout = SubsystemLayout((2, 2), ("A", "C"))
        states = [tensor(basis_ket(2, 0), basis_ket(2, 0)).density(layout),
                  tensor(basis_ket(2, 0), Ket.normalized([1.0, 1.0])).density(layout)]
        basis = [basis_ket(2, 0), basis_ket(2, 1)]
        alone = [projective_measure(s, basis, "C") for s in states]
        assert [a[1].state is None for a in alone] == [True, False]  # null for row 0 only
        with pytest.raises(ValueError, match="branch 1 is null in some rows"):
            projective_measure(stack_of(states), basis, "C")
        # null in every row: a null branch of the stack, zero in each row
        both = projective_measure(stack_of([states[0], states[0]]), basis, "C")
        assert both[1].state is None and both[1].probability.tolist() == [0.0, 0.0]
        assert_rows_equal(both[0].state, [alone[0][0].state] * 2)

    @pytest.mark.parametrize("dims", [(2, 2, 2), (3, 3, 2), (2, 2, 2, 2, 2)])
    def test_rows_equal_lone_runs_in_every_step(self, dims, rng):
        labels = tuple(f"L{i}" for i in range(len(dims)))
        layout = SubsystemLayout(dims, labels)
        states = [random_density(layout.total_dim, rng, layout) for _ in range(3)]
        stack = stack_of(states)
        d = dims[0]
        phases = np.exp(2j * np.pi * np.random.default_rng(7).random(dims[1]))
        ancilla = random_density(2, rng, SubsystemLayout((2,), ("Z",)))
        steps = [
            lambda rho: tensor(rho, ancilla),
            lambda rho: rho.reorder(labels[::-1]),
            lambda rho: clone_fan_out(rho, labels[0], labels[1:2]),
            lambda rho: apply_phases(rho, phases, labels[1]),
            lambda rho: partial_trace(rho, labels[1:]),
        ]
        if dims[1] == d:
            steps.append(lambda rho: apply_coincidence(rho, labels[:2]))
        for step in steps:
            assert_rows_equal(step(stack), [step(s) for s in states])
        psi = random_ket(layout.total_dim, rng)
        assert [float(f) for f in fidelity_with_ket(stack, psi)] == [
            fidelity_with_ket(s, psi) for s in states]
        basis = [Ket(v) for v in random_unitary(dims[-1], rng).T]
        for k, branch in enumerate(projective_measure(stack, basis, labels[-1])):
            alone = [projective_measure(s, basis, labels[-1])[k] for s in states]
            assert branch.outcome == k
            assert np.array_equal(branch.probability, [a.probability for a in alone])
            assert_rows_equal(branch.state, [a.state for a in alone])

    @pytest.mark.parametrize("dims", [(3, 3, 2), (2, 2, 2, 3), (2, 2, 2, 2, 2)])
    def test_rows_on_different_supports_run_on_their_union(self, dims, rng):
        # past _SUPPORT_MIN_DIM: rows on nested and overlapping supports, held
        # on their union, which the first row holds whole; each row taken out
        # by _row is on its own support
        labels = tuple(f"L{i}" for i in range(len(dims)))
        layout = SubsystemLayout(dims, labels)
        n = layout.total_dim
        assert n > _SUPPORT_MIN_DIM
        union = np.sort(rng.choice(n, size=8, replace=False))
        states = []
        for on in (union, union[:3], union[4:], union[[1, 6]]):
            g = np.zeros((n, 2), dtype=complex)
            g[on] = rng.normal(size=(on.size, 2)) + 1j * rng.normal(size=(on.size, 2))
            m = g @ g.conj().T
            states.append(DensityMatrix(m / m.trace(), layout))
        stack = _stacked(states)
        assert np.array_equal(stack.support, union)
        assert np.array_equal(stack._row(np.array([1, 3])).support, union[[0, 1, 2, 6]])

        def rows_equal(out, lone):
            """Every row on its lone run's support, with its bits, signed
            zeros too."""
            for i, state in enumerate(lone):
                row = out._row(i)
                assert row.layout == state.layout
                assert np.array_equal(row.support, state.support)
                assert row.block.tobytes() == state.block.tobytes()

        # the index moves, the summed terms and the phases, which work entry
        # by entry: every row as a run of its own
        ancilla = random_density(2, rng, SubsystemLayout((2,), ("Z",)))
        phases = np.exp(2j * np.pi * np.random.default_rng(7).random(dims[1]))
        steps = [
            lambda rho: tensor(rho, ancilla),
            lambda rho: rho.reorder(labels[::-1]),
            lambda rho: partial_trace(rho, labels[1:]),
            lambda rho: apply_phases(rho, phases, labels[1]),
        ]
        if dims[1] == dims[0]:
            steps += [lambda rho: clone_fan_out(rho, labels[0], labels[1:2]),
                      lambda rho: apply_coincidence(rho, labels[:2])]
        for step in steps:
            rows_equal(step(stack), [step(s) for s in states])
        # the fidelity and the measurement add their terms in order from
        # +0.0, so the zeros of a row off its own support leave its bits as
        # they are, and a sweep stacks resources of any support
        # (test_protocols.py::TestStackedSweep)
        psi = random_ket(n, rng)
        assert [f.hex() for f in fidelity_with_ket(stack, psi).tolist()] == [
            fidelity_with_ket(s, psi).hex() for s in states]
        basis = [Ket(v) for v in random_unitary(dims[-1], rng).T]
        for k, branch in enumerate(projective_measure(stack, basis, labels[-1])):
            alone = [projective_measure(s, basis, labels[-1])[k] for s in states]
            assert [p.hex() for p in branch.probability.tolist()] == [
                a.probability.hex() for a in alone]
            rows_equal(branch.state, [a.state for a in alone])
