import re

import numpy as np
import pytest

from qswitch_lab import (
    ChoiMatrix,
    KrausChannel,
    ResourceGuardError,
    SubsystemLayout,
    basis_ket,
    channels_equal,
    choi,
    cyclic_switch,
    erasing_channel,
    ghz_ket,
    k_multiline,
    policy,
    tensor,
    vacuum_extend,
    Ket,
    DensityMatrix,
)

from qswitch_lab.linalg import _min_eigenvalue, _trimmed
from qswitch_lab.numeric import PSD_FLOOR

from conftest import identity_channel, kraus_apply, random_density, random_unitary, remix


def oracle_choi(kraus_ops, in_dim, out_dim):
    """Independent Choi builder: (id (x) ch) applied to sum_kl |kk><ll|."""
    c = np.zeros((in_dim * out_dim, in_dim * out_dim), dtype=complex)
    for k in range(in_dim):
        for l in range(in_dim):
            ekl = np.zeros((in_dim, in_dim), dtype=complex)
            ekl[k, l] = 1.0
            image = sum(K @ ekl @ K.conj().T for K in kraus_ops)
            c += np.kron(ekl, image)
    return c


def oracle_apply(kraus_ops, rho_entries):
    return sum(K @ rho_entries @ K.conj().T for K in kraus_ops)


class TestKrausChannel:
    def test_requires_trace_preservation(self):
        half = [np.eye(2, dtype=complex) * 0.5]
        with pytest.raises(ValueError, match="trace preserving"):
            KrausChannel(tuple(half))

    def test_requires_consistent_shapes(self):
        ops = (np.eye(2, dtype=complex), np.eye(3, dtype=complex))
        with pytest.raises(ValueError, match="shape"):
            KrausChannel(ops)

    def test_requires_matrices(self):
        with pytest.raises(ValueError, match="at least one"):
            KrausChannel(())
        with pytest.raises(ValueError, match="must be matrices"):
            KrausChannel((np.array([1.0, 0.0]),))
        with pytest.raises(ValueError, match="must be matrices"):
            KrausChannel(np.eye(2)[None, None])

    def test_kraus_is_one_read_only_stack(self):
        iso = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])  # an isometry 2 -> 3
        ops = [iso]
        ch = KrausChannel(ops)
        assert ch.kraus.ndim == 3 and ch.kraus.shape == (1, 3, 2)
        assert ch.kraus.dtype == complex
        assert (ch.n_kraus, ch.out_dim, ch.in_dim) == (1, 3, 2) and not ch.is_square()
        assert not ch.kraus.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            ch.kraus[0, 0, 0] = 2.0
        iso[0, 0] = 5.0  # the channel holds its own copy
        assert ch.kraus[0, 0, 0] == 1.0
        assert erasing_channel(3, 1).kraus.shape == (3, 3, 3)

    def test_stack_copied_unless_nothing_writeable_shares_it(self):
        frozen = erasing_channel(3, 1).kraus  # read-only, owning its memory
        assert KrausChannel(frozen).kraus is frozen
        writeable = frozen.copy()
        view = writeable[:]
        view.setflags(write=False)  # read-only, but a writeable array shares it
        for given in (writeable, view):
            ch = KrausChannel(given)
            assert ch.kraus is not given
            writeable[0, 1, 0] = 5.0  # mutated after construction
            assert np.array_equal(ch.kraus, frozen)
            writeable[0, 1, 0] = 1.0

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1j * np.nan])
    def test_rejects_non_finite_operator(self, bad):
        k = np.eye(2, dtype=complex)
        k[0, 1] = bad
        with pytest.raises(ValueError, match="trace preserving"):
            KrausChannel((k,))


class TestErasingChannel:
    def test_erases_plus_state(self):
        rho = Ket.normalized([1, 1]).density()
        out = kraus_apply(erasing_channel(2, 0).kraus, rho, ("A",))
        assert np.allclose(out.entries, np.diag([1.0, 0.0]), atol=1e-12)

    def test_erases_maximally_mixed(self):
        rho = DensityMatrix(np.eye(2) / 2, SubsystemLayout((2,), ("A",)))
        out = kraus_apply(erasing_channel(2, 1).kraus, rho, ("A",))
        assert np.allclose(out.entries, np.diag([0.0, 1.0]), atol=1e-12)

    def test_kraus_list_d3_target2(self):
        ch = erasing_channel(3, 2)
        assert ch.n_kraus == 3
        for i, k in enumerate(ch.kraus):
            expected = np.zeros((3, 3))
            expected[2, i] = 1.0
            assert np.array_equal(k, expected)

    def test_target_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            erasing_channel(3, 3)

    def test_idempotent(self, rng):
        ch = erasing_channel(2, 1)
        rho = random_density(2, rng)
        once = kraus_apply(ch.kraus, rho, ("A",))
        twice = kraus_apply(ch.kraus, once, ("A",))
        assert np.abs(once.entries - twice.entries).max() < 1e-12


class TestVacuumExtend:
    def test_realized_operators_for_erasing_to_0(self):
        ext = vacuum_extend(erasing_channel(2, 0), [1.0, 0.0])
        e0 = np.zeros((3, 3))
        e0[0, 0] = 1.0
        e0[2, 2] = 1.0
        e1 = np.zeros((3, 3))
        e1[0, 1] = 1.0
        assert np.array_equal(ext.realized.kraus[0], e0)
        assert np.array_equal(ext.realized.kraus[1], e1)

    def test_realized_operators_for_erasing_to_1(self):
        ext = vacuum_extend(erasing_channel(2, 1), [0.0, 1.0])
        f0 = np.zeros((3, 3))
        f0[1, 0] = 1.0
        f1 = np.zeros((3, 3))
        f1[1, 1] = 1.0
        f1[2, 2] = 1.0
        assert np.array_equal(ext.realized.kraus[0], f0)
        assert np.array_equal(ext.realized.kraus[1], f1)

    def test_vacuum_is_fixed_point(self, rng):
        a = rng.normal(size=3) + 1j * rng.normal(size=3)
        a /= np.linalg.norm(a)
        ch = erasing_channel(3, 1)
        ext = vacuum_extend(ch, a)
        triv = basis_ket(4, 3).density(SubsystemLayout((4,), ("T",)))
        out = kraus_apply(ext.realized.kraus, triv, ("T",))
        assert np.abs(out.entries - triv.entries).max() < 1e-12

    def test_extension_is_not_erasing_on_larger_space(self):
        # unlike the base channel, the extension has no fixed output state
        ext = vacuum_extend(erasing_channel(2, 0), [1.0, 0.0])
        layout = SubsystemLayout((3,), ("T",))
        out_a = kraus_apply(ext.realized.kraus, basis_ket(3, 0).density(layout), ("T",))
        out_b = kraus_apply(ext.realized.kraus, basis_ket(3, 2).density(layout), ("T",))
        assert np.abs(out_a.entries - out_b.entries).max() > 0.5

    def test_normalization_enforced(self):
        with pytest.raises(ValueError, match="norm"):
            vacuum_extend(erasing_channel(2, 0), [1.0, 1.0])
        with pytest.raises(ValueError, match="amplitudes"):
            vacuum_extend(erasing_channel(2, 0), [1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_amplitudes_rejected(self, bad):
        with pytest.raises(ValueError, match="norm"):
            vacuum_extend(erasing_channel(2, 0), [bad, 1.0])


class TestApply:
    def test_identity_channel(self, rng):
        rho = random_density(4, rng, SubsystemLayout((2, 2), ("A", "B")))
        out = kraus_apply(identity_channel(4).kraus, rho, ("A", "B"))
        assert np.abs(out.entries - rho.entries).max() < 1e-12

    def test_erase_half_of_bell_pair(self):
        layout = SubsystemLayout((2, 2), ("A", "C"))
        rho = ghz_ket(2, 2).density(layout)
        out = kraus_apply(erasing_channel(2, 0).kraus, rho, ("A",))
        kraus = erasing_channel(2, 0).kraus
        full = [np.kron(k, np.eye(2)) for k in kraus]
        oracle = oracle_apply(full, rho.entries)
        assert np.abs(out.entries - oracle).max() < 1e-14
        expected = np.kron(np.diag([1.0, 0.0]), np.eye(2) / 2)
        assert np.allclose(out.entries, expected, atol=1e-12)

    def test_dimension_mismatch(self, rng):
        rho = random_density(4, rng, SubsystemLayout((2, 2), ("A", "B")))
        with pytest.raises(ValueError, match="dimension"):
            kraus_apply(erasing_channel(3, 0).kraus, rho, ("A",))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_trace_preserved_on_random_states(self, d, rng):
        chans = [erasing_channel(d, d - 1), identity_channel(d)]
        layout = SubsystemLayout((d,), ("A",))
        for ch in chans:
            for _ in range(200):
                rho = random_density(d, rng, layout)
                out = kraus_apply(ch.kraus, rho, ("A",))
                assert abs(np.trace(out.entries) - 1.0) <= 1e-10


class TestChoi:
    def test_dimension_guard(self, monkeypatch):
        # the Choi matrix of a 4-level channel has dimension 16
        monkeypatch.setattr(policy, "max_dim", 16)
        assert choi(identity_channel(4)).entries.shape == (16, 16)
        monkeypatch.setattr(policy, "max_dim", 15)
        with pytest.raises(ResourceGuardError, match="Choi matrix needs total dimension 16,"):
            choi(identity_channel(4))

    def test_identity_channel_choi(self):
        c = choi(identity_channel(2))
        phi = ghz_ket(2, 2).amplitudes
        assert np.allclose(c.entries, 2.0 * np.outer(phi, phi.conj()), atol=1e-12)

    def test_erasing_choi_matches_oracle(self):
        ch = erasing_channel(2, 0)
        c = choi(ch)
        oracle = oracle_choi(ch.kraus, 2, 2)
        assert np.abs(c.entries - oracle).max() < 1e-14

    def test_representation_independence(self, rng):
        ch = erasing_channel(3, 1)
        u = random_unitary(3, rng)
        mixed = remix(ch, u)
        dist = np.linalg.norm(choi(ch).entries - choi(mixed).entries)
        assert dist < 1e-12

    @pytest.mark.parametrize(
        "n_kraus, in_dim, out_dim",
        [
            (n, i, o)
            for n in range(1, 6)
            for i, o in [(2, 2), (3, 3), (2, 3), (3, 2)]
            if n * o >= i  # room for an isometry
        ],
    )
    def test_random_channel_matches_oracle(self, n_kraus, in_dim, out_dim, rng):
        # the columns of a random isometry, cut into n_kraus blocks of rows
        g = rng.normal(size=(n_kraus * out_dim, in_dim)) + 1j * rng.normal(
            size=(n_kraus * out_dim, in_dim)
        )
        ch = KrausChannel(np.linalg.qr(g)[0].reshape(n_kraus, out_dim, in_dim))
        c = choi(ch)
        assert (c.in_dim, c.out_dim) == (in_dim, out_dim)
        assert np.abs(c.entries - oracle_choi(ch.kraus, in_dim, out_dim)).max() <= 1e-14

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1j * np.nan])
    def test_rejects_non_finite_entries(self, bad):
        m = choi(identity_channel(2)).entries.copy()
        m[0, 1] = m[1, 0] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            ChoiMatrix(m, 2, 2)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_choi_positive_and_unit_marginal(self, d):
        for ch in (erasing_channel(d, 0), identity_channel(d)):
            c = choi(ch)
            assert np.linalg.eigvalsh(c.entries)[0] >= -1e-10
            assert abs(np.trace(c.entries) - d) < 1e-10


def sparse_channels(d):
    """Channels whose Choi matrices (d^2 or more squared) have a strict support."""
    return [
        ("erasing", erasing_channel(d * d, 0)),
        ("order", cyclic_switch([erasing_channel(d, j) for j in range(d)])),
        ("multiline", k_multiline(d, 1)),
    ]


class TestChoiSupport:
    @pytest.mark.parametrize("d", [3, 4])
    def test_same_verdict_and_minimum_as_full_eigvalsh(self, d):
        for name, ch in sparse_channels(d):
            m = choi(ch).entries  # constructed, so the support check passed
            n = m.shape[0]
            support, block = _trimmed(np.arange(n), m, n)
            assert support.size < n, name
            assert np.array_equal(block, m[np.ix_(support, support)]), name
            full = float(np.linalg.eigvalsh(m)[0])
            assert full >= PSD_FLOOR
            assert abs(_min_eigenvalue(block, m.shape[0]) - full) <= 1e-14, name

    @pytest.mark.parametrize("d", [3, 4])
    def test_negative_eigenvalue_inside_support_raises_same_text(self, d):
        for name, ch in sparse_channels(d):
            m = np.array(choi(ch).entries)
            n = m.shape[0]
            support, block = _trimmed(np.arange(n), m, n)
            w, v = np.linalg.eigh(block)
            w[0] = -1e-6  # inside the support, every other eigenvalue kept
            m[np.ix_(support, support)] = (v * w) @ v.conj().T
            full = float(np.linalg.eigvalsh(m)[0])
            expected = f"Choi matrix not PSD: min eigenvalue {full:.3e}"
            assert expected.endswith("-1.000e-06")
            with pytest.raises(ValueError, match=re.escape(expected)):
                ChoiMatrix(m, ch.in_dim, ch.out_dim)


class TestChannelEquality:
    def test_self_equal(self):
        ch = erasing_channel(2, 0)
        cmp = channels_equal(ch, ch)
        assert cmp.equal and cmp.distance == 0.0

    def test_different_erasing_channels(self):
        a, b = erasing_channel(2, 0), erasing_channel(2, 1)
        oracle = np.linalg.norm(oracle_choi(a.kraus, 2, 2) - oracle_choi(b.kraus, 2, 2))
        cmp = channels_equal(a, b)
        assert not cmp.equal
        assert cmp.distance > 1.0
        assert abs(cmp.distance - oracle) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            channels_equal(erasing_channel(2, 0), erasing_channel(3, 0))

    def test_distance_always_reported(self, rng):
        ch = erasing_channel(2, 0)
        mixed = remix(ch, random_unitary(2, rng))
        cmp = channels_equal(ch, mixed, tol=1e-10)
        assert cmp.equal
        assert cmp.distance >= 0.0
        assert cmp.tol == 1e-10
