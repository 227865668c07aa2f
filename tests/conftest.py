import functools
import tracemalloc

import numpy as np
import pytest

from qswitch_lab import DensityMatrix, Ket, ResourceGuardError, SubsystemLayout


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def refused_before_allocating(call, match):
    """Check that ``call()`` raises ResourceGuardError matching ``match``
    while tracemalloc sees a peak under 16 MB: the refusal comes before the
    allocation it refuses (each case refuses hundreds of MB or more)."""
    tracemalloc.start()
    try:
        with pytest.raises(ResourceGuardError, match=match):
            call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6, peak


def random_density(dim, rng, layout=None):
    """Random full-rank valid state: projected complex Gaussian."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    m /= m.trace()
    if layout is None:
        layout = SubsystemLayout((dim,), ("A",))
    return DensityMatrix(m, layout)


def random_ket(dim, rng):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return Ket.normalized(v)


def random_unitary(dim, rng):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def clone_extend_unitary(d, n_copies):
    """Basis-copy unitary on 1 + n_copies qudits: |k>|0..0> -> |k>^(n+1).

    Completed to a full unitary by cyclic addition on each ancilla register
    (|k, a_1, ..., a_n> -> |k, a_1 + k, ..., a_n + k> mod d), the qudit
    generalization of a CNOT fan-out: sum_k |k><k| (x) (X^k)^(x n), X the
    cyclic shift |a> -> |a + 1 mod d>.  The dense oracle of
    ``protocols.clone_fan_out``, which moves support indices instead.
    """
    shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)
    dim = d ** (n_copies + 1)
    block = dim // d
    u = np.zeros((dim, dim), dtype=complex)
    for k in range(d):
        # |k><k| (x) (X^k)^(x n) is the k-th diagonal block
        power = functools.reduce(np.kron, [np.linalg.matrix_power(shift, k)] * n_copies)
        u[k * block:(k + 1) * block, k * block:(k + 1) * block] = power
    return u


def bell_phase_flip_mixture(eps):
    """(1 - eps)|Phi+><Phi+| + eps|Phi-><Phi-|: at eps = -1e-11 its minimum
    eigenvalue passes the psd floor, and a private dit sent with it as the
    resource gives two receiver probabilities of about -5e-12."""
    phi_p = np.array([1, 0, 0, 1]) / np.sqrt(2)
    phi_m = np.array([1, 0, 0, -1]) / np.sqrt(2)
    return (1 - eps) * np.outer(phi_p, phi_p) + eps * np.outer(phi_m, phi_m)


def naive_partial_trace(entries, dims, keep):
    """Index-summation oracle: loop over all computational indices."""
    from itertools import product

    n = len(dims)
    traced = [i for i in range(n) if i not in keep]
    kdims = [dims[i] for i in keep]
    out_dim = int(np.prod(kdims))
    out = np.zeros((out_dim, out_dim), dtype=complex)

    def flat(idx):
        f = 0
        for d, i in zip(dims, idx):
            f = f * d + i
        return f

    def kflat(idx):
        f = 0
        for d, i in zip(kdims, idx):
            f = f * d + i
        return f

    for krow in product(*[range(dims[i]) for i in keep]):
        for kcol in product(*[range(dims[i]) for i in keep]):
            acc = 0.0 + 0.0j
            for t in product(*[range(dims[i]) for i in traced]):
                row = [0] * n
                col = [0] * n
                for pos, val in zip(keep, krow):
                    row[pos] = val
                for pos, val in zip(keep, kcol):
                    col[pos] = val
                for pos, val in zip(traced, t):
                    row[pos] = val
                    col[pos] = val
                acc += entries[flat(row), flat(col)]
            out[kflat(krow), kflat(kcol)] = acc
    return out


def assert_rows_equal(stack, states):
    """Each row of a stack has the bits of the state computed on its own."""
    assert len(stack.block) == len(states)
    for i, state in enumerate(states):
        assert stack.layout == state.layout
        assert np.array_equal(stack.support, state.support)
        assert np.array_equal(stack.block[i], state.block)
