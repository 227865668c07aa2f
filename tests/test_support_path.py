"""The support path against the whole-matrix path it replaces, and its memory.

Every protocol step maps a state's support block to a support block.  The
reference here runs the protocols on whole matrices with the kernels the
whole-matrix path used: ``np.kron`` and transposes for the tensor factors,
and the dense Kraus action of the oracle ``kraus_apply`` (``dense_conjugate``
in conftest.py: two BLAS products per operator on the ``(m, r, m, r)``
tensor) for the clone unitary and the Kraus list of ``k_multiline``
(``np.einsum`` would round differently from these BLAS products).  The phase
gates (the sender's encoding and the receiver's correction) multiply each
entry of the whole matrix by its phase, as ``apply_phases`` does on the
block, and the measurement adds each entry of the whole matrix times its
basis weights into its branch entry, in the order ``projective_measure``
adds them on the block.  For every stage and branch, the support and block
of the library's state must equal what ``_trimmed`` finds on the reference
matrix, bit for bit.  The same references check the oracle's products
against ``np.tensordot``'s, and the library's measurement, on a seeded mixed
state with a partial support; the fidelity and the measurement are checked
against Python loops over their support terms, and the last tests check
that states sharing a support share their kept index plans.
"""

import math
import tracemalloc

import numpy as np
import pytest

from qswitch_lab import (
    DensityMatrix,
    Ket,
    KrausChannel,
    ResourceState,
    SubsystemLayout,
    apply_phases,
    fidelity_with_ket,
    fourier_basis,
    ghz_ket,
    k_multiline,
    policy,
    projective_measure,
    run_ghz_distribution,
    run_private_dit,
)
from qswitch_lab import linalg
from qswitch_lab.linalg import _clamp, _product, _trimmed
from qswitch_lab.numeric import NULL_BRANCH_TOL
from qswitch_lab.protocols import phase_vector

from conftest import (
    clone_extend_unitary, dense_conjugate, dense_embedded, kraus_apply, random_density, random_ket,
)


def dense_phases(m, dims, pos, g):
    """The phase gate diag(g) on factor ``pos`` of the whole matrix: each
    entry (s, t) times g[a_s] conj(g[a_t]), a_s the factor's digit of s, in
    the order of ``apply_phases``, a zero entry +0.0."""
    a = g[np.arange(m.shape[0]) // math.prod(dims[pos + 1:]) % dims[pos]]
    return _product(m, _product(a[:, None], a.conj()[None, :])) + 0.0


def dense_collapse(m, dims, positions):
    """The closed action of the coincidence channel on the whole matrix."""
    d = dims[positions[0]]

    def collapse(t):
        acted, r = t.shape[0], t.shape[1]
        span = np.arange(d) * ((acted - 1) // (d - 1))
        block = np.ix_(span, np.arange(r), span, np.arange(r))
        out = np.zeros_like(t)
        out[block] += t[block]
        for j, c in enumerate(span):
            for a in range(j, acted, d):
                if a != c:
                    out[c, :, c, :] += t[a, :, a, :]
        return out

    return dense_embedded(m, dims, positions, collapse)


def dense_channel(m, dims, positions):
    """K^(N) from its Kraus list where that is quick, else its closed action
    (which tests/test_combinators.py pins to the Kraus list bit for bit)."""
    d, lines = dims[positions[0]], len(positions) - 1
    if d ** (lines + 1) <= 64:
        return dense_conjugate(m, dims, positions, k_multiline(d, lines).kraus)
    return dense_collapse(m, dims, positions)


def dense_measure(m, dims, pos, basis):
    """Every branch of measuring factor ``pos``: the normalised matrix or None.

    Branch entry (r, r') adds the entries ((a, r), (b, r')) of the whole
    matrix times conj(v[a]) v[b], each a ``_product``, by a and then b from
    +0.0; its probability adds the diagonal left to right from +0.0.
    """
    n, s = len(dims), dims[pos]
    out_dim = m.shape[0] // s
    t = np.moveaxis(m.reshape(tuple(dims) * 2), (pos, n + pos), (0, n))  # the measured axes first
    t = t.reshape(s, out_dim, s, out_dim)
    branches = []
    for ket in basis:
        v = ket.amplitudes
        w = _product(v.conj()[:, None], v[None, :])
        block = np.zeros((out_dim, out_dim), dtype=complex)
        for a in range(s):
            for b in range(s):
                block = block + _product(t[a, :, b, :], w[a, b])
        p = 0.0
        for x in block.diagonal().real.tolist():
            p += x
        branches.append(None if p < NULL_BRANCH_TOL else block / p)
    return branches


def tensordot_measure(m, dims, pos, basis):
    """``dense_measure`` as the whole-matrix path computed it, through BLAS:
    ``tensordot``s over the measured axis of the whole tensor."""
    n = len(dims)
    t = m.reshape(tuple(dims) * 2)
    out_dim = m.shape[0] // dims[pos]
    branches = []
    for ket in basis:
        v = ket.amplitudes
        t1 = np.tensordot(v.conj(), t, axes=(0, pos))
        t2 = np.tensordot(v, t1, axes=(0, n - 1 + pos)).reshape(out_dim, out_dim)
        p = float(np.real(np.trace(t2)))
        branches.append(None if p < NULL_BRANCH_TOL else t2 / p)
    return branches


def reference_establishment(d, n, rho0):
    """The stages (resource, extended, cloned, transmitted) and the corrected
    branch states of a GHZ run with n receivers, as whole matrices."""
    zero = np.zeros((d, d), dtype=complex)
    zero[0, 0] = 1.0
    extended = rho0
    for _ in range(n):
        extended = np.kron(extended, zero)  # layout (A, C, A1, ..., An)
    k = n + 2
    perm = [0, *range(2, k), 1]  # to (A, A1, ..., An, C)
    extended = extended.reshape((d,) * 2 * k).transpose(perm + [k + p for p in perm])
    extended = extended.reshape(d**k, d**k)
    dims = (d,) * k
    cloned = dense_conjugate(extended, dims, range(n + 1), [clone_extend_unitary(d, n)])
    sent = dense_channel(cloned, dims, range(1, k))
    branches = [
        None if b is None else dense_phases(b, dims[:-1], 1, phase_vector(c, d))
        for c, b in enumerate(dense_measure(sent, dims, k - 1, fourier_basis(d)))
    ]
    return [rho0, extended, cloned, sent], branches


def reference_private_dit(d, x, rho0):
    encoded = dense_phases(rho0, (d, d), 0, phase_vector(x, d))
    sent = dense_channel(encoded, (d, d), [0, 1])
    return [rho0, encoded, sent], dense_measure(sent, (d, d), 1, fourier_basis(d))


def resource(d, kind):
    """The resource state of one kind and its whole matrix, built apart."""
    if kind == "mixed":  # explicit and full rank
        rng = np.random.default_rng(100 + d)
        g = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
        m = g @ g.conj().T
        m /= m.trace()
        layout = SubsystemLayout((d, d), ("A", "C"))
        return ResourceState.explicit(DensityMatrix(m, layout)), m
    if kind == "max":
        res, amps = ResourceState.maximally_entangled(d), ghz_ket(d, 2).amplitudes
    else:
        lam = np.random.default_rng(200 + d).dirichlet(np.ones(d))
        res, amps = ResourceState.from_schmidt(lam), np.zeros(d * d, dtype=complex)
        amps[np.arange(d) * (d + 1)] = np.sqrt(lam)
    return res, np.outer(amps, amps.conj())


def assert_support_block_of(state, dense):
    n = dense.shape[0]
    support, block = _trimmed(np.arange(n), dense, n)
    # every step hands back an ascending index array
    assert isinstance(state.support, np.ndarray) and state.support.dtype.kind == "i"
    assert np.all(np.diff(state.support) > 0)
    assert np.array_equal(state.support, support)
    assert np.array_equal(state.block, block)


KINDS = ["max", "schmidt", "mixed"]
GHZ_SIZES = [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3), (4, 2), (5, 2)]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("d,n", GHZ_SIZES)
def test_ghz_stages_and_branches_equal_the_whole_matrix_path(d, n, kind):
    res, rho0 = resource(d, kind)
    t = run_ghz_distribution(d, n, res)
    stages, branches = reference_establishment(d, n, rho0)
    assert list(t.stages) == ["resource", "extended", "cloned", "transmitted"]
    for state, dense in zip(t.stages.values(), stages):
        assert_support_block_of(state, dense)
    assert len(t.branches) == len(branches)
    for branch, dense in zip(t.branches, branches):
        assert (branch.state is None) == (dense is None)
        if dense is not None:
            assert_support_block_of(branch.state, dense)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("d", range(2, 9))
def test_private_dit_stages_and_branches_equal_the_whole_matrix_path(d, kind):
    res, rho0 = resource(d, kind)
    x = d // 2
    t = run_private_dit(d, x, res)
    stages, branches = reference_private_dit(d, x, rho0)
    for state, dense in zip(t.stages.values(), stages):
        assert_support_block_of(state, dense)
    for branch in t.branches:  # d per controller outcome, sharing its state
        dense = branches[branch.controller_outcome]
        if branch.state is not None:
            assert_support_block_of(branch.state, dense)
        elif branch.receiver_outcomes is None:
            assert dense is None


@pytest.mark.parametrize("d,n", [(2, 10), (4, 4)])
def test_guard_ceiling_run_holds_only_support_blocks(d, n):
    # one whole 4096 x 4096 complex matrix alone is 268 MB
    tracemalloc.start()
    try:
        t = run_ghz_distribution(d, n, ResourceState.maximally_entangled(d))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64e6
    states = [*t.stages.values()][1:] + [b.state for b in t.branches]
    assert all(s.support.size == d for s in states)
    assert t.metrics["fidelity_min"] > 1 - 1e-10
    assert t.metrics["maximally_entangled_all_branches"]


def test_entries_are_built_on_request_and_read_only():
    t = run_ghz_distribution(3, 2, ResourceState.maximally_entangled(3))
    state = t.stages["transmitted"]
    whole = state.entries
    assert whole.shape == (81, 81) and whole is not state.entries
    assert np.array_equal(whole[np.ix_(state.support, state.support)], state.block)
    assert np.count_nonzero(whole) == np.count_nonzero(state.block)
    for a in (whole, state.block, state.support):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0


def partial_support_state(dims, size, rank, seed):
    """A seeded mixed state of the given rank whose support is ``size``
    random indices of a space larger than ``_SUPPORT_MIN_DIM``."""
    rng = np.random.default_rng(seed)
    n = math.prod(dims)
    g = np.zeros((n, rank), dtype=complex)
    on = rng.choice(n, size=size, replace=False)
    g[on] = rng.normal(size=(size, rank)) + 1j * rng.normal(size=(size, rank))
    m = g @ g.conj().T
    m /= m.trace()
    return DensityMatrix(m, SubsystemLayout(dims, ("A", "B", "C")))


def test_kraus_products_equal_the_tensordot_path_on_a_partial_support():
    # the oracle's two products per operator are the np.dot calls that
    # np.tensordot makes, on the same operands in the same memory order
    rho = partial_support_state((3, 2, 3), 7, 3, seed=7)
    assert 0 < rho.support.size < rho.dim
    rng = np.random.default_rng(8)
    g = rng.normal(size=(27, 9)) + 1j * rng.normal(size=(27, 9))
    ch = KrausChannel(np.linalg.qr(g)[0].reshape(3, 9, 9))  # three Kraus operators

    def tensordots(t):
        out = np.zeros_like(t)
        for K in ch.kraus:
            t1 = np.tensordot(K, t, axes=(1, 0))
            t2 = np.tensordot(t1, K.conj(), axes=(2, 1))
            out += t2.transpose(0, 1, 3, 2)
        return out

    out = kraus_apply(ch.kraus, rho, ("C", "A"))
    assert_support_block_of(out, dense_embedded(rho.entries, rho.layout.dims, [2, 0], tensordots))


@pytest.mark.parametrize("label,low", [("C", 1), ("B", 3), ("A", 6)])
def test_measurement_equals_the_whole_matrix_formula_on_a_partial_support(label, low):
    # the same bits as the elementwise formula on the whole matrix, and the
    # tensordot products the measurement once used within the spectral tolerance
    rho = partial_support_state((3, 2, 3), 7, 3, seed=9)
    pos = rho.layout.index_of(label)
    assert math.prod(rho.layout.dims[pos + 1:]) == low
    s = rho.layout.dims[pos]
    rng = np.random.default_rng(10)
    g = rng.normal(size=(s, s)) + 1j * rng.normal(size=(s, s))
    basis = [Ket(v) for v in np.linalg.qr(g)[0].T]
    branches = projective_measure(rho, basis, label)
    dense = dense_measure(rho.entries, rho.layout.dims, pos, basis)
    blas = tensordot_measure(rho.entries, rho.layout.dims, pos, basis)
    for branch, m, b in zip(branches, dense, blas, strict=True):
        assert (branch.state is None) == (m is None) == (b is None)
        if m is not None:
            assert_support_block_of(branch.state, m)
            assert np.abs(branch.state.entries - b).max() <= policy.spectral_tol


# full-support states of dimension 4, 8 and 16, and trimmed states of
# dimension 40 whose measured block is trimmed too (outcome dimension 20)
KERNEL_STATES = [((2, 2), None), ((2, 2, 2), None), ((2, 2, 4), None), ((2, 4, 5), 9)]


def kernel_state(dims, size, seed):
    if size is None:
        rng = np.random.default_rng(seed)
        labels = ("A", "B", "C")[:len(dims)]
        return random_density(math.prod(dims), rng, SubsystemLayout(dims, labels))
    return partial_support_state(dims, size, 3, seed)


def whole_range_fidelity(rho, psi):
    """``fidelity_with_ket`` as it was for every support, through BLAS: the
    support columns scattered over every row, the product scattered back."""
    v = psi.amplitudes
    cols = np.zeros((rho.dim, rho.support.size), dtype=complex)
    cols[rho.support] = rho.block
    u = np.zeros(rho.dim, dtype=complex)
    u[rho.support] = v.conj() @ cols
    return _clamp(float(np.real(u @ v)), "fidelity")


def loop_fidelity(rho, psi):
    """<psi| rho |psi> as a Python loop over the support terms in row-major
    order, each Re(rho_st * (conj(psi_s) psi_t)) in float arithmetic, added
    left to right from +0.0."""
    v = psi.amplitudes[rho.support]
    vr, vi = v.real.tolist(), v.imag.tolist()
    br, bi = rho.block.real.tolist(), rho.block.imag.tolist()
    total = 0.0
    for s in range(v.size):
        for t in range(v.size):
            wr = vr[s] * vr[t] + vi[s] * vi[t]  # conj(psi_s) psi_t
            wi = vr[s] * vi[t] - vi[s] * vr[t]
            total += br[s][t] * wr - bi[s][t] * wi
    return _clamp(total, "fidelity")


@pytest.mark.parametrize("seed", [11, 12])
@pytest.mark.parametrize("dims,size", KERNEL_STATES)
def test_fidelity_kernel_equals_the_whole_range_formula(dims, size, seed):
    # the same bits as the loop over the support terms, and the old BLAS
    # formula over the whole range within the spectral tolerance
    rho = kernel_state(dims, size, seed)
    assert (rho.support.size == rho.dim) == (size is None)
    psi = random_ket(rho.dim, np.random.default_rng(seed + 100))
    fortran = DensityMatrix._unchecked(rho.layout, rho.support, np.asfortranarray(rho.block))
    for state in (rho, fortran):  # a block in either memory order
        f = fidelity_with_ket(state, psi)
        assert f.hex() == loop_fidelity(state, psi).hex()
        assert abs(f - whole_range_fidelity(state, psi)) <= policy.spectral_tol


def loop_measure(rho, basis, label):
    """Each branch of measuring ``label`` as a Python loop over the support
    entries in row-major order: entry (s, t) times conj(v[a_s]) v[a_t], a_s
    the measured digit of index s, in float arithmetic, added into the
    branch entry of the two indices' other digits from +0.0.  Per outcome:
    the probability, the diagonal added left to right from +0.0, and the
    output support with the branch block on it, not normalised."""
    pos = rho.layout.index_of(label)
    s, low = rho.layout.dims[pos], math.prod(rho.layout.dims[pos + 1:])
    digit = [i // low % s for i in rho.support.tolist()]
    rest = [i // (s * low) * low + i % low for i in rho.support.tolist()]
    support = sorted(set(rest))
    cell = [support.index(r) for r in rest]
    br, bi = rho.block.real.tolist(), rho.block.imag.tolist()
    out = []
    for ket in basis:
        vr, vi = ket.amplitudes.real.tolist(), (-ket.amplitudes.imag).tolist()  # conj(v)
        re = [[0.0] * len(support) for _ in support]
        im = [[0.0] * len(support) for _ in support]
        for x, (a, i) in enumerate(zip(digit, cell)):
            for y, (b, j) in enumerate(zip(digit, cell)):
                wr = vr[a] * vr[b] - vi[a] * -vi[b]  # conj(v[a]) v[b]
                wi = vr[a] * -vi[b] + vi[a] * vr[b]
                re[i][j] += br[x][y] * wr - bi[x][y] * wi
                im[i][j] += br[x][y] * wi + bi[x][y] * wr
        p = 0.0
        for i in range(len(support)):
            p += re[i][i]
        block = np.empty((len(support), len(support)), dtype=complex)
        block.real, block.imag = re, im
        out.append((p, np.array(support), block))
    return out


@pytest.mark.parametrize("seed", [11, 12])
@pytest.mark.parametrize("dims,size", KERNEL_STATES)
def test_measurement_kernel_equals_the_whole_range_formula(dims, size, seed):
    # the same bits as the loop over the support terms, and the old BLAS
    # formula over the whole range within the spectral tolerance
    rho = kernel_state(dims, size, seed)
    for label in rho.layout.labels:
        pos = rho.layout.index_of(label)
        s = rho.layout.dims[pos]
        g = np.random.default_rng(seed).normal(size=(s, s, 2)) @ [1, 1j]
        basis = [Ket(v) for v in np.linalg.qr(g)[0].T]
        branches = projective_measure(rho, basis, label)
        blas = tensordot_measure(rho.entries, rho.layout.dims, pos, basis)
        out_dim = rho.dim // s
        for branch, (p, support, block), b in zip(branches, loop_measure(rho, basis, label), blas,
                                                   strict=True):
            assert (branch.state is None) == (p < NULL_BRANCH_TOL) == (b is None)
            assert branch.probability.hex() == (0.0 if branch.state is None else p).hex()
            if branch.state is not None:
                assert np.array_equal(branch.state.support, _trimmed(support, block, out_dim)[0])
                assert np.array_equal(branch.state.block, _trimmed(support, block / p, out_dim)[1])
                assert np.abs(branch.state.entries - b).max() <= policy.spectral_tol


PLANS = (linalg._split, linalg._measure_terms, linalg._trace_terms, linalg._coincidence_terms)


def test_private_dit_messages_share_their_plans():
    res = ResourceState.maximally_entangled(10)
    for plan in PLANS:
        plan.cache_clear()
    run_private_dit(10, 0, res)
    built = [plan.cache_info().misses for plan in PLANS]
    for x in range(1, 10):
        run_private_dit(10, x, res)
    # every message has the one support of the resource: nine runs build nothing
    assert [plan.cache_info().misses for plan in PLANS] == built
    # and no plan was built twice
    assert [plan.cache_info().currsize for plan in PLANS] == built
    state = run_private_dit(10, 3, res).stages["transmitted"]
    for a in linalg._measure_terms(state, [1]):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0


def test_ghz_branches_share_their_correction_plan():
    linalg._split.cache_clear()
    t = run_ghz_distribution(3, 3, ResourceState.maximally_entangled(3))
    supports = {b.state.support.tobytes() for b in t.branches}
    assert len(t.branches) == 3 and len(supports) == 1
    # the run's one stacked correction kept the digit plan that each branch's
    # own correction looks up: three lookups, nothing built
    kept = linalg._split.cache_info()
    for cb, b in zip(t.measured, t.branches):
        alone = apply_phases(cb.state, phase_vector(cb.outcome, 3), "B1")
        assert np.array_equal(alone.support, b.state.support)
        assert np.array_equal(alone.block, b.state.block)
    assert linalg._split.cache_info().misses == kept.misses
    assert linalg._split.cache_info().hits == kept.hits + len(t.branches)
