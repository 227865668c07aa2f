import hashlib
import tracemalloc
from functools import reduce
from itertools import product

import numpy as np
import pytest

from qswitch_lab import (
    KrausChannel,
    ResourceGuardError,
    SubsystemLayout,
    apply_coincidence,
    channels_equal,
    choi,
    coincidence_extensions,
    controlled_choice,
    cyclic_switch,
    erasing_channel,
    fidelity_with_ket,
    ghz_ket,
    k_multiline,
    k_multiline_enumerated,
    policy,
    t_decomposition,
    target_sector_restriction,
    tensor,
    vacuum_extend,
    Ket,
)
from qswitch_lab.numeric import ZERO_OPERATOR_TOL

from conftest import (
    identity_channel, kraus_apply, random_density, random_ket, random_unitary,
    refused_before_allocating, remix,
)


def two_qudit_layout(d, labels=("A", "C")):
    return SubsystemLayout((d, d), labels)


class TestSwitchTwo:
    """Order control of two channels: ``cyclic_switch`` with a qubit control."""

    def test_identity_channels_give_identity(self, rng):
        sw = cyclic_switch([identity_channel(2), identity_channel(2)])
        rho = random_density(4, rng, two_qudit_layout(2))
        out = kraus_apply(sw.kraus, rho, ("A", "C"))
        assert np.abs(out.entries - rho.entries).max() < 1e-12

    def test_noiseless_subspace_on_bell_state(self):
        sw = cyclic_switch([erasing_channel(2, 0), erasing_channel(2, 1)])
        rho = ghz_ket(2, 2).density(two_qudit_layout(2))
        out = kraus_apply(sw.kraus, rho, ("A", "C"))
        assert fidelity_with_ket(out, ghz_ket(2, 2)) > 1 - 1e-12

    def test_plus_plus_input_matches_enumeration_oracle(self):
        # brute-force oracle: direct Kraus sums from the defining formula
        e, f = erasing_channel(2, 0), erasing_channel(2, 1)
        ops = []
        p0 = np.diag([1.0, 0.0]).astype(complex)
        p1 = np.diag([0.0, 1.0]).astype(complex)
        for a in range(2):
            for b in range(2):
                ops.append(
                    np.kron(e.kraus[a] @ f.kraus[b], p0) + np.kron(f.kraus[b] @ e.kraus[a], p1)
                )
        plus = Ket.normalized([1, 1])
        rho_in = tensor(plus, plus).density(two_qudit_layout(2))
        oracle = sum(K @ rho_in.entries @ K.conj().T for K in ops)

        sw = cyclic_switch([e, f])
        out = kraus_apply(sw.kraus, rho_in, ("A", "C"))
        assert np.abs(out.entries - oracle).max() < 1e-14

        phi = ghz_ket(2, 2).amplitudes
        expected = 0.5 * np.outer(phi, phi.conj())
        expected[0, 0] += 0.25
        expected[3, 3] += 0.25
        assert np.allclose(out.entries, expected, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="equal dimension"):
            cyclic_switch([erasing_channel(2, 0), erasing_channel(3, 0)])

    def test_representation_independence(self, rng):
        e, f = erasing_channel(2, 0), erasing_channel(2, 1)
        sw = cyclic_switch([e, f])
        for _ in range(20):
            e2 = remix(e, random_unitary(2, rng))
            f2 = remix(f, random_unitary(2, rng))
            sw2 = cyclic_switch([e2, f2])
            assert channels_equal(sw, sw2, 1e-12).equal


class TestChoiceTwo:
    """Choice control of two extended channels: ``controlled_choice`` of two."""

    def test_matches_switch_on_target_sector(self):
        e_ext, f_ext = coincidence_extensions(2)
        ch = controlled_choice([e_ext, f_ext])
        restricted = target_sector_restriction(ch, 2)
        sw = cyclic_switch([erasing_channel(2, 0), erasing_channel(2, 1)])
        cmp = channels_equal(restricted, sw)
        assert cmp.equal, cmp.distance

    def test_controlled_identity(self, rng):
        ext = vacuum_extend(identity_channel(2), [1.0])
        ch = controlled_choice([ext, ext])
        layout = SubsystemLayout((3, 2), ("T", "C"))
        rho = random_density(6, rng, layout)
        out = kraus_apply(ch.kraus, rho, ("T", "C"))
        assert np.abs(out.entries - rho.entries).max() < 1e-12

    def test_vacuum_control_sector_fixed(self):
        e_ext, f_ext = coincidence_extensions(2)
        ch = controlled_choice([e_ext, f_ext])
        layout = SubsystemLayout((3, 2), ("T", "C"))
        from qswitch_lab import basis_ket

        rho = tensor(basis_ket(3, 2), basis_ket(2, 0)).density(layout)
        out = kraus_apply(ch.kraus, rho, ("T", "C"))
        assert np.abs(out.entries - rho.entries).max() < 1e-12

    def test_amplitude_dependence_documented_counterexample(self):
        # same base channels, different extensions: strictly different channel
        coincidence = coincidence_extensions(2)
        uniform = [
            vacuum_extend(erasing_channel(2, j), [1 / np.sqrt(2), 1 / np.sqrt(2)])
            for j in range(2)
        ]
        a = target_sector_restriction(controlled_choice(coincidence), 2)
        b = target_sector_restriction(controlled_choice(uniform), 2)
        cmp = channels_equal(a, b, 1e-10)
        assert not cmp.equal
        assert cmp.distance > 1e-6


def loop_cyclic_switch(channels):
    """Reference enumeration: one Kraus pick per channel, in itertools.product
    order; the control-j branch is the product starting with channel j, and
    zero operators are dropped."""
    n, d = len(channels), channels[0].in_dim
    ops = []
    for tup in product(*[range(c.n_kraus) for c in channels]):
        s = np.zeros((d * n, d * n), dtype=complex)
        for j in range(n):
            prod_op = np.eye(d, dtype=complex)
            for k in range(n):
                c = (j + k) % n
                prod_op = prod_op @ channels[c].kraus[tup[c]]
            proj = np.zeros((n, n))
            proj[j, j] = 1.0
            s += np.kron(prod_op, proj)
        ops.append(s)
    return [k for k in ops if np.abs(k).max() > ZERO_OPERATOR_TOL]


def random_unitary_channel(d, n_kraus, rng):
    p = rng.dirichlet(np.ones(n_kraus))
    return KrausChannel(tuple(np.sqrt(pk) * random_unitary(d, rng) for pk in p))


class TestCyclicSwitch:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_erasing_channels_equal_loop_reference_exactly(self, d):
        chans = [erasing_channel(d, j) for j in range(d)]
        got = cyclic_switch(chans).kraus
        want = loop_cyclic_switch(chans)
        assert len(got) == len(want)
        for g, w in zip(got, want):  # operator by operator, in order
            assert np.array_equal(g, w)

    @pytest.mark.parametrize(
        "d,counts", [(2, (1, 3)), (3, (2, 1, 3)), (2, (2, 2, 2, 2)), (4, (3, 2))]
    )
    def test_random_unitary_channels_equal_loop_reference(self, d, counts, rng):
        chans = [random_unitary_channel(d, k, rng) for k in counts]
        got = cyclic_switch(chans).kraus
        want = loop_cyclic_switch(chans)
        assert len(got) == len(want) == int(np.prod(counts))
        for g, w in zip(got, want):
            assert np.abs(g - w).max() <= 1e-14

    @pytest.mark.parametrize("d,count", [(2, 3), (3, 7), (4, 13), (5, 21)])
    def test_nonzero_kraus_count(self, d, count):
        sw = cyclic_switch([erasing_channel(d, j) for j in range(d)])
        assert sw.n_kraus == count  # 1 + d*(d-1)

    def test_d3_preserves_maximally_entangled_family(self):
        sw = cyclic_switch([erasing_channel(3, j) for j in range(3)])
        for x in range(3):
            phi = ghz_ket(3, 2, x)
            rho = phi.density(two_qudit_layout(3))
            out = kraus_apply(sw.kraus, rho, ("A", "C"))
            assert fidelity_with_ket(out, phi) > 1 - 1e-12

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            cyclic_switch([])

    def test_enumeration_cap(self):
        # 6^6 tuples of 36^2 entries (967 MB) against one 4096^2 matrix (268 MB)
        erasing = [erasing_channel(6, j) for j in range(6)]
        refused_before_allocating(
            lambda: cyclic_switch(erasing), "cyclic switch needs 46656 matrices of dimension 36 "
        )
        extended = coincidence_extensions(6)
        refused_before_allocating(
            lambda: controlled_choice(extended),
            "controlled choice needs 46656 matrices of dimension 42 ",
        )

    @pytest.mark.parametrize("combination", ["order", "choice"])
    def test_peak_near_the_stack(self, combination):
        # 5^5 operators of dimension 25 (31 MB) or 30 (45 MB): each control
        # block goes into the stack as it is formed and is tested for zeros
        # there, so the build peaks within 1.2x of the stack, not at 1.5x
        if combination == "order":
            channels, build, dim = [erasing_channel(5, j) for j in range(5)], cyclic_switch, 25
        else:
            channels, build, dim = coincidence_extensions(5), controlled_choice, 30
        tracemalloc.start()
        try:
            assert build(channels).n_kraus == 21
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * 5**5 * dim**2 * 16, peak

    def test_size_rule_boundary(self, monkeypatch):
        # two qubit channels give 4 operators of dimension 4, 4 * 4^2 entries:
        # admitted at 8^2, refused at 7^2 though dimension 4 is below 7
        channels = [erasing_channel(2, j) for j in range(2)]
        monkeypatch.setattr(policy, "max_dim", 8)
        assert cyclic_switch(channels).n_kraus == 3
        monkeypatch.setattr(policy, "max_dim", 7)
        with pytest.raises(ResourceGuardError, match="needs 4 matrices of dimension 4 "):
            cyclic_switch(channels)

    def test_order_mode_representation_independence(self, rng):
        chans = [erasing_channel(3, j) for j in range(3)]
        base = cyclic_switch(chans)
        for _ in range(5):
            mixed = [remix(c, random_unitary(3, rng)) for c in chans]
            assert channels_equal(base, cyclic_switch(mixed), 1e-12).equal


def loop_controlled_choice(channels):
    """Reference enumeration: one Kraus pick per extended channel, in
    itertools.product order; the control-j branch is channel j's pick
    weighted by the other picks' vacuum amplitudes, and zero operators are
    dropped."""
    n, dd = len(channels), channels[0].realized.in_dim
    ops = []
    for tup in product(*[range(c.realized.n_kraus) for c in channels]):
        t = np.zeros((dd * n, dd * n), dtype=complex)
        for j in range(n):
            coeff = 1.0 + 0.0j
            for l in range(n):
                if l != j:
                    coeff *= channels[l].amplitudes[tup[l]]
            proj = np.zeros((n, n))
            proj[j, j] = 1.0
            t += coeff * np.kron(channels[j].realized.kraus[tup[j]], proj)
        ops.append(t)
    return [k for k in ops if np.abs(k).max() > ZERO_OPERATOR_TOL]


def random_extensions(d, rng):
    exts = []
    for l in range(d):
        a = rng.normal(size=d) + 1j * rng.normal(size=d)
        exts.append(vacuum_extend(erasing_channel(d, l), Ket.normalized(a).amplitudes))
    return exts


class TestControlledChoice:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_coincidence_extensions_equal_loop_reference_exactly(self, d):
        exts = coincidence_extensions(d)
        got = controlled_choice(exts).kraus
        want = loop_controlled_choice(exts)
        assert len(got) == len(want)
        for g, w in zip(got, want):  # operator by operator, in order
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_random_amplitudes_equal_loop_reference(self, d, rng):
        exts = random_extensions(d, rng)
        got = controlled_choice(exts).kraus
        want = loop_controlled_choice(exts)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.abs(g - w).max() <= 1e-14

    def test_all_live_stack_is_not_copied(self):
        # random amplitudes leave every one of the 4^4 operators of dimension
        # 20 (1.6 MB) live: the stack goes to the channel as built, without a
        # fancy-index copy or a read-only copy, so the build peaks near 2x the
        # stack, and the operators keep their bytes
        exts = random_extensions(4, np.random.default_rng(7))  # verify's seed
        tracemalloc.start()
        try:
            kraus = controlled_choice(exts).kraus
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kraus.shape == (256, 20, 20)
        assert peak <= 2.5 * kraus.nbytes, peak / kraus.nbytes
        assert hashlib.sha256(kraus.tobytes()).hexdigest() == (
            "35cb61d4cef736061a60ab1a1e595d5db9c0d70d84271743efbc24592e4d4982")

    def test_all_live_d5_stack_peaks_near_itself(self):
        # all 5^5 operators of dimension 30 (45 MB) live: the channel keeps
        # the frozen stack and sums K^dag K over 16 MB row chunks, so the
        # build peaks within 1.5x of the stack, and the operators keep their
        # bytes
        exts = random_extensions(5, np.random.default_rng(7))  # verify's seed
        tracemalloc.start()
        try:
            kraus = controlled_choice(exts).kraus
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kraus.shape == (3125, 30, 30)
        assert peak <= 1.5 * kraus.nbytes, peak / kraus.nbytes
        assert hashlib.sha256(kraus.tobytes()).hexdigest() == (
            "ad9a8caee5520241411edfb49214dfb193ff9e89e3c76fe5809d9b9c8f4c6333")

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_coincidence_with_order_control(self, d):
        choice = controlled_choice(coincidence_extensions(d))
        restricted = target_sector_restriction(choice, d)
        order = cyclic_switch([erasing_channel(d, j) for j in range(d)])
        cmp = channels_equal(restricted, order, 1e-10)
        assert cmp.equal, cmp.distance

    def test_generic_amplitudes_differ_from_order_control(self, rng):
        d = 2
        exts = random_extensions(d, rng)
        restricted = target_sector_restriction(controlled_choice(exts), d)
        order = cyclic_switch([erasing_channel(d, j) for j in range(d)])
        cmp = channels_equal(restricted, order, 1e-10)
        assert not cmp.equal and cmp.distance > 0

    def test_unnormalized_amplitudes_rejected(self):
        with pytest.raises(ValueError, match="norm"):
            vacuum_extend(erasing_channel(2, 0), [0.9, 0.1])


class TestClosedForm:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_equals_cyclic_switch(self, d):
        order = cyclic_switch([erasing_channel(d, j) for j in range(d)])
        cmp = channels_equal(k_multiline(d, 1), order, 1e-12)
        assert cmp.equal, cmp.distance

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_fixes_phased_maximally_entangled_states(self, d):
        k = k_multiline(d, 1)
        for x in range(d):
            phi = ghz_ket(d, 2, x)
            out = kraus_apply(k.kraus, phi.density(two_qudit_layout(d)), ("A", "C"))
            assert fidelity_with_ket(out, phi) >= 1 - 1e-10

    def test_plus_plus_value_matches_switch_example(self):
        k = k_multiline(2, 1)
        plus = Ket.normalized([1, 1])
        rho = tensor(plus, plus).density(two_qudit_layout(2))
        out = kraus_apply(k.kraus, rho, ("A", "C"))
        phi = ghz_ket(2, 2).amplitudes
        expected = 0.5 * np.outer(phi, phi.conj())
        expected[0, 0] += 0.25
        expected[3, 3] += 0.25
        assert np.allclose(out.entries, expected, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    def test_output_support_on_diagonal_span(self, d, rng):
        k = k_multiline(d, 1)
        layout = two_qudit_layout(d)
        diag_idx = [j * d + j for j in range(d)]
        off = [i for i in range(d * d) if i not in diag_idx]
        for _ in range(200):
            rho = random_density(d * d, rng, layout)
            out = kraus_apply(k.kraus, rho, ("A", "C"))
            residual = np.abs(out.entries[np.ix_(off, off)]).max()
            residual = max(residual, np.abs(out.entries[np.ix_(off, diag_idx)]).max())
            assert residual < 1e-10


class TestMultiline:
    def test_n1_reduces_to_closed_form(self):
        # {P0} + {|j><l| (x) |j><j| : l != j}, P0 = sum_j |jj><jj|, in this order
        for d in (2, 3):
            e = np.eye(d, dtype=complex)
            p0 = sum(np.outer(np.kron(e[j], e[j]), np.kron(e[j], e[j])) for j in range(d))
            ops = [p0] + [
                np.kron(np.outer(e[j], e[l]), np.outer(e[j], e[j]))
                for j in range(d)
                for l in range(d)
                if l != j
            ]
            k = k_multiline(d, 1)
            assert len(k.kraus) == len(ops)
            assert all(np.array_equal(a, b) for a, b in zip(k.kraus, ops))

    @pytest.mark.parametrize("d", [2, 3])
    def test_n2_list_equals_kron_construction(self, d):
        # {P0^2} + {|jjj><y1 y2 j| : (y1, y2) != (j, j)}, P0^2 = sum_j |jjj><jjj|
        e = np.eye(d, dtype=complex)

        def ket(*digits):
            return reduce(np.kron, [e[i] for i in digits])

        p0 = sum(np.outer(ket(j, j, j), ket(j, j, j)) for j in range(d))
        ops = [p0] + [
            np.outer(ket(j, j, j), ket(y1, y2, j))
            for j in range(d)
            for y1, y2 in product(range(d), repeat=2)
            if (y1, y2) != (j, j)
        ]
        k = k_multiline(d, 2)
        assert k.n_kraus == len(ops) == d * (d * d - 1) + 1
        for a, b in zip(k.kraus, ops):  # operator by operator, in order
            assert np.array_equal(a, b)

    # (3, 2) is 729 tuples of dimension 27: the size rule admits it
    @pytest.mark.parametrize(
        "d,n", [pytest.param(2, 1, id="1"), pytest.param(2, 2, id="2"), pytest.param(3, 2, id="d3-2")]
    )
    def test_matches_enumeration_oracle(self, d, n):
        enum = k_multiline_enumerated([erasing_channel(d, j) for j in range(d)], n)
        cmp = channels_equal(k_multiline(d, n), enum, 1e-10)
        assert cmp.equal, cmp.distance

    def test_preserves_padded_ghz4(self):
        # channel on (B1, B2, C), identity on the kept label A
        layout = SubsystemLayout((2,) * 4, ("A", "B1", "B2", "C"))
        ghz4 = ghz_ket(2, 4)
        out = kraus_apply(k_multiline(2, 2).kraus, ghz4.density(layout), ("B1", "B2", "C"))
        assert fidelity_with_ket(out, ghz4) >= 1 - 1e-10

    @pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)])
    def test_fixes_phased_ghz_family(self, d, n, rng):
        k = k_multiline(d, n)
        labels = tuple(f"B{i}" for i in range(1, n + 1)) + ("C",)
        layout = SubsystemLayout((d,) * (n + 1), labels)
        for x in range(d):
            g = ghz_ket(d, n + 1, x)
            out = kraus_apply(k.kraus, g.density(layout), labels)
            assert fidelity_with_ket(out, g) >= 1 - 1e-10
        # arbitrary phase patterns inside the noiseless span
        stride = (d ** (n + 1) - 1) // (d - 1)
        for _ in range(5):
            phases = rng.uniform(0, 2 * np.pi, size=d)
            amps = np.zeros(d ** (n + 1), dtype=complex)
            for j in range(d):
                amps[j * stride] = np.exp(1j * phases[j]) / np.sqrt(d)
            psi = Ket(amps)
            out = kraus_apply(k.kraus, psi.density(layout), labels)
            assert fidelity_with_ket(out, psi) >= 1 - 1e-10

    @pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (3, 1)])
    def test_output_support_in_diagonal_span(self, d, n, rng):
        k = k_multiline(d, n)
        labels = tuple(f"B{i}" for i in range(1, n + 1)) + ("C",)
        layout = SubsystemLayout((d,) * (n + 1), labels)
        dim = d ** (n + 1)
        stride = (dim - 1) // (d - 1)
        diag_idx = [j * stride for j in range(d)]
        off = [i for i in range(dim) if i not in diag_idx]
        for _ in range(200):
            rho = random_density(dim, rng, layout)
            out = kraus_apply(k.kraus, rho, labels)
            residual = np.abs(out.entries[np.ix_(off, off)]).max()
            residual = max(residual, np.abs(out.entries[np.ix_(off, diag_idx)]).max())
            assert residual < 1e-10

    def test_resource_guard(self):
        with pytest.raises(ResourceGuardError, match="limit"):
            k_multiline(9, 3)

    def test_storage_cap_before_allocation(self):
        # 511 operators of 512^2: about 2.1 GB against the 268 MB of one
        # operator at the default dimension limit
        refused_before_allocating(
            lambda: k_multiline(2, 8), "needs 511 matrices of dimension 512 "
        )

    def test_storage_cap_boundary(self, monkeypatch):
        monkeypatch.setattr(policy, "max_dim", 16)
        assert k_multiline(2, 1).n_kraus == 3  # 3 * 4^2 <= 16^2
        with pytest.raises(ResourceGuardError, match="needs 7 matrices of dimension 8 "):
            k_multiline(2, 2)  # dimension 8 passes, 7 * 8^2 > 16^2 does not

    def test_enumeration_cap(self):
        for d, n, message in [
            (3, 3, "cyclic switch needs 19683 matrices of dimension 81 "),  # 2.1 GB
            (4, 2, "cyclic switch needs 65536 matrices of dimension 64 "),  # 4.3 GB
        ]:
            erasing = [erasing_channel(d, j) for j in range(d)]
            refused_before_allocating(lambda: k_multiline_enumerated(erasing, n), message)

    def test_tensor_power_refused_before_the_switch(self):
        # one qubit channel at N = 12: 2^12 operators of 4096^2 (1.1 TB)
        qubit = [erasing_channel(2, 0)]
        refused_before_allocating(
            lambda: k_multiline_enumerated(qubit, 12),
            "tensor power stack needs 4096 matrices of dimension 4096 ",
        )

    def test_enumeration_needs_a_line(self):
        with pytest.raises(ValueError, match="at least one line"):
            k_multiline_enumerated([erasing_channel(2, j) for j in range(2)], 0)

    @pytest.mark.parametrize("d,n", [(1, 2), (2, 1), (2, 2)])
    def test_enumeration_of_unitaries_is_block_diagonal(self, d, n, rng):
        # one Kraus operator per channel: block j is the n-th tensor power of
        # U_j U_{j+1} ... U_{j-1}, so channel j acts last on every line; a
        # swap of the lines inside each power shows at d = 1 (at d = 2 two cancel)
        us = [random_unitary(2, rng) for _ in range(d)]
        enum = k_multiline_enumerated([KrausChannel(u[None]) for u in us], n)
        expected = np.zeros((2**n, d, 2**n, d), dtype=complex)
        for j in range(d):
            cyc = reduce(np.matmul, [us[(j + k) % d] for k in range(d)])
            expected[:, j, :, j] = reduce(np.kron, [cyc] * n)
        assert enum.n_kraus == 1
        assert np.abs(enum.kraus[0] - expected.reshape(2**n * d, -1)).max() <= 1e-12

    def test_single_line_enumeration_is_the_cyclic_switch(self, rng):
        for channels in (
            [erasing_channel(2, j) for j in range(2)],
            [remix(erasing_channel(2, j), random_unitary(2, rng)) for j in range(2)],
            [KrausChannel(random_unitary(3, rng)[None])],
        ):
            enum, switch = k_multiline_enumerated(channels, 1), cyclic_switch(channels)
            assert enum.n_kraus == switch.n_kraus
            for a, b in zip(enum.kraus, switch.kraus):  # operator by operator
                assert np.array_equal(a, b)


class TestApplyCoincidence:
    """The structured application against the Kraus-list oracle, bit for bit."""

    @pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (5, 1)])
    def test_equals_kraus_path_on_random_states(self, d, n, rng):
        labels = tuple(f"B{i}" for i in range(1, n + 1)) + ("C",)
        layout = SubsystemLayout((d,) * (n + 1), labels)
        k = k_multiline(d, n)
        for _ in range(5):
            rho = random_density(d ** (n + 1), rng, layout)
            out = apply_coincidence(rho, labels)
            assert np.array_equal(out.entries, kraus_apply(k.kraus, rho, labels).entries)

    @pytest.mark.parametrize(
        "acting_on", [("B1", "B2", "C"), ("B2", "B1", "C"), ("C", "B1", "B2")]
    )
    def test_equals_kraus_path_with_spectators(self, acting_on, rng):
        # spectators before, between and after the acted labels
        layout = SubsystemLayout((3, 2, 2, 2, 2, 3), ("S0", "B1", "S1", "B2", "C", "S2"))
        rho = random_density(layout.total_dim, rng, layout)
        out = apply_coincidence(rho, acting_on)
        oracle = kraus_apply(k_multiline(2, 2).kraus, rho, acting_on)
        assert np.array_equal(out.entries, oracle.entries)
        assert out.layout == rho.layout

    def test_fixes_phased_ghz_family_beyond_oracle_cap(self):
        d, n = 2, 8
        with pytest.raises(ResourceGuardError):
            k_multiline(d, n)
        labels = tuple(f"B{i}" for i in range(1, n + 1)) + ("C",)
        layout = SubsystemLayout((d,) * (n + 1), labels)
        for x in range(d):
            g = ghz_ket(d, n + 1, x).density(layout)
            out = apply_coincidence(g, labels)
            assert np.abs(out.entries - g.entries).max() < 1e-12

    def test_rejects_unequal_dims(self, rng):
        layout = SubsystemLayout((2, 3), ("B1", "C"))
        rho = random_density(6, rng, layout)
        with pytest.raises(ValueError, match="dimension"):
            apply_coincidence(rho, ("B1", "C"))

    def test_rejects_single_label(self, rng):
        layout = SubsystemLayout((2, 2), ("B1", "C"))
        rho = random_density(4, rng, layout)
        with pytest.raises(ValueError, match="at least one target"):
            apply_coincidence(rho, ("C",))


class TestTargetSectorRestriction:
    @pytest.mark.parametrize("d, control_dim", [(2, 2), (2, 3), (3, 2)])
    def test_keeps_message_sector_in_basis_order(self, d, control_dim, rng):
        # a diagonal unitary leaves every basis subset invariant
        dims = (d + 1, control_dim)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=int(np.prod(dims))))
        restricted = target_sector_restriction(KrausChannel(np.diag(phases)[None]), d)
        keep = [flat for flat, (t, _) in enumerate(product(*[range(s) for s in dims])) if t < d]
        assert len(keep) == d * control_dim
        assert np.array_equal(restricted.kraus[0], np.diag(phases[keep]))

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError, match=r"dimension 7 is not \(d\+1\) \* control_dim"):
            target_sector_restriction(identity_channel(7), 2)


class TestTDecomposition:
    def test_coincidence_extensions_give_basis_vectors(self):
        d = 3
        dec = t_decomposition(coincidence_extensions(d))
        for j, v in enumerate(dec.v):
            expected = np.zeros(d)
            expected[j] = 1.0
            assert np.allclose(v.amplitudes, expected, atol=1e-12)
            assert abs(np.linalg.norm(v.amplitudes) - 1.0) < 1e-10
        # t0 equals the projector onto the noiseless span
        p0 = np.zeros((d * d, d * d), dtype=complex)
        for j in range(d):
            p0[j * d + j, j * d + j] = 1.0
        assert np.allclose(dec.t0, p0, atol=1e-12)

    def test_reconstruction_for_canonical_extensions(self):
        d = 2
        exts = [
            vacuum_extend(erasing_channel(d, j), [1.0, 0.0]) for j in range(d)
        ]
        dec = t_decomposition(exts)
        target = target_sector_restriction(controlled_choice(exts), d)
        cmp = channels_equal(dec.reconstructed_channel(), target, 1e-10)
        assert cmp.equal, cmp.distance

    def test_subnormalized_vector_yields_positive_remainder(self):
        # overcomplete Kraus list for the erasing channel makes |v_0| < 1
        ops = [
            np.array([[1.0, 0.0], [0.0, 0.0]]),
            np.array([[0.0, 1 / np.sqrt(2)], [0.0, 0.0]]),
            np.array([[0.0, 1 / np.sqrt(2)], [0.0, 0.0]]),
        ]
        base = KrausChannel(tuple(np.asarray(o, dtype=complex) for o in ops))
        ext0 = vacuum_extend(base, [0.0, 1.0, 0.0])
        ext1 = vacuum_extend(erasing_channel(2, 1), [0.0, 1.0])
        dec = t_decomposition([ext0, ext1])
        assert np.linalg.norm(dec.v[0].amplitudes) < 1.0 - 1e-6
        evals = np.linalg.eigvalsh(dec.remainder_weights[0])
        assert evals.min() > 1e-6
        target = target_sector_restriction(controlled_choice([ext0, ext1]), 2)
        cmp = channels_equal(dec.reconstructed_channel(), target, 1e-10)
        assert cmp.equal, cmp.distance

    @pytest.mark.parametrize("d", [2, 3])
    def test_reconstruction_over_random_amplitudes(self, d, rng):
        for _ in range(50):
            exts = []
            for l in range(d):
                a = rng.normal(size=d) + 1j * rng.normal(size=d)
                exts.append(vacuum_extend(erasing_channel(d, l), a / np.linalg.norm(a)))
            dec = t_decomposition(exts)
            assert all(np.linalg.norm(v.amplitudes) <= 1.0 + 1e-12 for v in dec.v)
            target = target_sector_restriction(controlled_choice(exts), d)
            cmp = channels_equal(dec.reconstructed_channel(), target, 1e-10)
            assert cmp.equal, cmp.distance

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_coincidence_round_trip_is_exact(self, d):
        # F_j = sum_i conj(alpha_i) K_i is read without any rounding here
        dec = t_decomposition(coincidence_extensions(d))
        target = target_sector_restriction(controlled_choice(coincidence_extensions(d)), d)
        assert channels_equal(dec.reconstructed_channel(), target).distance == 0.0

    def test_non_erasing_channel_rejected(self):
        ext = vacuum_extend(identity_channel(2), [1.0])
        with pytest.raises(ValueError, match="erasing"):
            t_decomposition([ext, ext])

    def test_empty_list_rejected(self):
        # as cyclic_switch and controlled_choice reject it, not as a d = 0
        # decomposition whose reconstruction fails in numpy
        with pytest.raises(ValueError, match="need at least one channel"):
            t_decomposition([])


class TestCombinatorChannelProperties:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_trace_preservation_and_choi_positivity(self, d, rng):
        built = [
            k_multiline(d, 1),
            cyclic_switch([erasing_channel(d, j) for j in range(d)]),
            target_sector_restriction(controlled_choice(coincidence_extensions(d)), d),
        ]
        layout = two_qudit_layout(d)
        for ch in built:
            c = choi(ch)
            assert np.linalg.eigvalsh(c.entries)[0] >= -1e-10
            for _ in range(67):
                rho = random_density(d * d, rng, layout)
                out = kraus_apply(ch.kraus, rho, ("A", "C"))
                assert abs(np.trace(out.entries) - 1.0) <= 1e-10
