"""The support path against the whole-matrix path it replaces, and its memory.

Every protocol step maps a state's support block to a support block.  The
reference here runs the protocols on whole matrices with the kernels the
whole-matrix path used: ``np.kron`` and transposes for the tensor factors, two
``tensordot``s per operator on the ``(m, r, m, r)`` tensor for the clone
unitary, the Kraus list of ``k_multiline`` and the receiver's correction, and
``tensordot``s over the measured axis of the whole tensor for the
measurement (``np.einsum`` would round differently from these BLAS
products).  For every stage and branch, the support and block of the
library's state must equal what ``_support_block`` finds on the reference
matrix, bit for bit.
"""

import math
import tracemalloc

import numpy as np
import pytest

from qswitch_lab import (
    DensityMatrix,
    ResourceState,
    SubsystemLayout,
    clone_extend_unitary,
    fourier_basis,
    ghz_ket,
    k_multiline,
    phase_unitary,
    policy,
    run_ghz_distribution,
    run_private_dit,
)
from qswitch_lab.linalg import _support_block


def dense_embedded(m, dims, positions, kernel):
    """Run ``kernel`` on the whole matrix with the addressed factors moved
    to the front, as an ``(m, r, m, r)`` tensor, and move them back."""
    n = len(dims)
    positions = list(positions)
    rest = [p for p in range(n) if p not in positions]
    perm = positions + rest
    acted = math.prod(dims[p] for p in positions)
    rest_dim = m.shape[0] // acted
    t = m.reshape(tuple(dims) * 2).transpose(perm + [n + p for p in perm])
    out = kernel(t.reshape(acted, rest_dim, acted, rest_dim))
    out = out.reshape(tuple(dims[p] for p in perm) * 2)
    inv = list(np.argsort(perm))
    return out.transpose(inv + [n + i for i in inv]).reshape(m.shape)


def dense_conjugate(m, dims, positions, ops):
    def kraus_sum(t):
        out = np.zeros_like(t)
        for K in ops:
            t1 = np.tensordot(K, t, axes=(1, 0))
            t2 = np.tensordot(t1, K.conj(), axes=(2, 1))
            out += t2.transpose(0, 1, 3, 2)
        return out

    return dense_embedded(m, dims, positions, kraus_sum)


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
    """Every branch of measuring factor ``pos``: the normalised matrix or None."""
    n = len(dims)
    t = m.reshape(tuple(dims) * 2)
    out_dim = m.shape[0] // dims[pos]
    branches = []
    for ket in basis:
        v = ket.amplitudes
        t1 = np.tensordot(v.conj(), t, axes=(0, pos))
        t2 = np.tensordot(v, t1, axes=(0, n - 1 + pos)).reshape(out_dim, out_dim)
        p = float(np.real(np.trace(t2)))
        branches.append(None if p < policy.null_branch_tol else t2 / p)
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
        None if b is None else dense_conjugate(b, dims[:-1], [1], [phase_unitary(c, d)])
        for c, b in enumerate(dense_measure(sent, dims, k - 1, fourier_basis(d)))
    ]
    return [rho0, extended, cloned, sent], branches


def reference_private_dit(d, x, rho0):
    encoded = dense_conjugate(rho0, (d, d), [0], [phase_unitary(x, d)])
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
    support, block = _support_block(dense)
    assert (state.support is None) == (support is None)
    if support is not None:
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
    assert [s.name for s in t.stages] == ["resource", "extended", "cloned", "transmitted"]
    for record, dense in zip(t.stages, stages):
        assert_support_block_of(record.state, dense)
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
    for record, dense in zip(t.stages, stages):
        assert_support_block_of(record.state, dense)
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
    states = [s.state for s in t.stages[1:]] + [b.state for b in t.branches]
    assert all(s.support is not None and s.support.size == d for s in states)
    assert t.metrics["fidelity_min"] > 1 - 1e-10
    assert t.metrics["maximally_entangled_all_branches"]


def test_entries_are_built_on_request_and_read_only():
    t = run_ghz_distribution(3, 2, ResourceState.maximally_entangled(3))
    state = t.stage("transmitted")
    whole = state.entries
    assert whole.shape == (81, 81) and whole is not state.entries
    assert np.array_equal(whole[np.ix_(state.support, state.support)], state.block)
    assert np.count_nonzero(whole) == np.count_nonzero(state.block)
    for a in (whole, state.block, state.support):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0
