"""The stacked paths of one run against the per-item paths they replace.

A run checks the live branches of a measurement as one stack, corrects and
scores them in one call with phases per row, reads a cut's Schmidt
spectrum off the support's digits (all cuts of one shape in one SVD) and
takes all trace distances of an ensemble in one ``eigvalsh``; a private
dit's messages run as stacks of the resource.  Each test
here runs the same items one at a time, as the library did before, and asks
for the same bits (or, where LAPACK gets a different matrix, the same
values within a few ulps and the same verdicts).  The last tests check that
no index plan tabulates the basis.
"""

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from qswitch_lab import (
    DensityMatrix,
    Ket,
    ResourceState,
    SubsystemLayout,
    apply_phases,
    fixed_configuration_baseline,
    ghz_ket,
    partial_trace,
    policy,
    privacy_report,
    projective_measure,
    run_ghz_distribution,
    run_private_dit,
    run_private_dit_ensemble,
    schmidt_coefficients,
    tensor,
    trace_distance,
)
from qswitch_lab import linalg, protocols
from qswitch_lab.cli import _parse_resource
from qswitch_lab.linalg import _stacked
from qswitch_lab.metrics import bipartition_reports, is_maximally_entangled, total_variation
from qswitch_lab.serialize import csv_text, dumps_json, transcript_metric_row, transcript_to_dict

from conftest import kraus_apply, random_density, random_ket
from test_support_path import KERNEL_STATES, kernel_state


def random_basis(s, seed):
    g = np.random.default_rng(seed).normal(size=(s, s, 2)) @ [1, 1j]
    return [Ket(v) for v in np.linalg.qr(g)[0].T]


def per_outcome_measure(rho, basis, label, monkeypatch):
    """The branches as a check per outcome gives them: each branch block the
    kernel adds up (``_added``), trimmed, normalised and checked on its own
    by ``_of_block``; a null branch is None."""
    summed = []

    def recording(terms, cells, size):
        summed.append(added(terms, cells, size))
        return summed[-1]

    added = linalg._added
    with monkeypatch.context() as m:
        m.setattr(linalg, "_added", recording)
        branches = projective_measure(rho, basis, label)
    [blocks] = summed  # (outcome, *rows, k * k)
    assert len(blocks) == len(branches)
    support = linalg._measure_terms(rho, [rho.layout.index_of(label)])[0]
    layout = rho.layout.keep([l for l in rho.layout.labels if l != label])
    alone = []
    for branch, block in zip(branches, blocks):
        if branch.state is None:
            alone.append(None)
            continue
        p = np.asarray(branch.probability)[..., None, None]
        block = block.reshape(block.shape[:-1] + (support.size, support.size))
        alone.append(DensityMatrix._of_block(layout, support, block / p))
    return branches, alone


def assert_same_state(a, b):
    assert a.layout == b.layout
    assert np.array_equal(a.support, b.support)
    assert np.array_equal(a.block, b.block)


class TestGroupedBranchCheck:
    @pytest.mark.parametrize("dims,size", KERNEL_STATES)
    def test_kernel_states(self, dims, size, monkeypatch):
        rho = kernel_state(dims, size, 21)
        for label in rho.layout.labels:
            s = rho.layout.dims[rho.layout.index_of(label)]
            branches, alone = per_outcome_measure(rho, random_basis(s, 22), label, monkeypatch)
            for branch, state in zip(branches, alone, strict=True):
                assert (branch.state is None) == (state is None)
                if state is not None:
                    assert_same_state(branch.state, state)

    def test_sweep_stack(self, monkeypatch):
        # a sweep's stack of resources, measured as the pipeline measures it
        spectra = [(0.1 * k, 1 - 0.1 * k) for k in range(1, 10)]
        rho0 = protocols._schmidt_states(spectra)
        sent = protocols._establishment_stack(2, 3, rho0, "ghz")[0]["transmitted"]
        assert sent.block.ndim == 3 and sent.dim > 16
        basis = linalg.fourier_basis(2)
        branches, alone = per_outcome_measure(sent, basis, "C", monkeypatch)
        for branch, state in zip(branches, alone, strict=True):
            assert_same_state(branch.state, state)
        # and each row as a run of its own
        for r in range(len(spectra)):
            row = DensityMatrix._unchecked(sent.layout, sent.support, sent.block[r])
            lone = projective_measure(row, basis, "C")
            for branch, own in zip(branches, lone):
                assert branch.probability[r] == own.probability
                assert np.array_equal(branch.state.block[r], own.state.block)

    def test_live_branches_on_different_supports(self, monkeypatch):
        # A in {0, 1} times B of dimension 20: the two outcomes of measuring A
        # leave states on disjoint supports of B, checked as one stack on
        # their union
        rng = np.random.default_rng(23)
        sigma = [np.zeros((20, 20), dtype=complex) for _ in range(2)]
        for m, on in zip(sigma, (np.arange(0, 5), np.arange(7, 13))):
            m[np.ix_(on, on)] = random_density(on.size, rng).entries
        whole = np.zeros((40, 40), dtype=complex)
        whole[:20, :20], whole[20:, 20:] = 0.3 * sigma[0], 0.7 * sigma[1]
        rho = DensityMatrix(whole, SubsystemLayout((2, 20), ("A", "B")))
        basis = [Ket(v) for v in np.eye(2)]
        branches, alone = per_outcome_measure(rho, basis, "A", monkeypatch)
        assert not np.array_equal(branches[0].state.support, branches[1].state.support)
        for branch, state in zip(branches, alone, strict=True):
            assert_same_state(branch.state, state)
            assert np.allclose(branch.state.entries, sigma[branch.outcome], atol=1e-15)

    def test_a_failing_branch_raises_its_own_message(self):
        # an unchecked input whose second branch is not positive: the group's
        # check raises the message that branch's own check raises
        tau = np.diag([0.6, 0.6, -0.2] + [0.0] * 17).astype(complex)
        good = np.diag([0.5, 0.3, 0.2] + [0.0] * 17).astype(complex)
        whole = np.zeros((40, 40), dtype=complex)
        whole[:20, :20], whole[20:, 20:] = 0.5 * good, 0.5 * tau
        layout = SubsystemLayout((2, 20), ("A", "B"))
        rho = DensityMatrix._unchecked(layout, np.arange(40), whole)
        with pytest.raises(ValueError) as grouped:
            projective_measure(rho, [Ket(v) for v in np.eye(2)], "A")
        with pytest.raises(ValueError) as own:
            DensityMatrix._of_block(layout.keep(["B"]), np.arange(20), tau)
        assert str(grouped.value) == str(own.value)
        assert "not positive semidefinite" in str(own.value)

    def test_one_check_per_support(self, monkeypatch):
        res = ResourceState.maximally_entangled(10)
        calls = []
        check = linalg._check
        monkeypatch.setattr(linalg, "_check",
                            lambda block, n: (calls.append(block.shape), check(block, n)))
        t = run_private_dit(10, 3, res)
        # the encoded and transmitted states, then the ten branches in one stack
        assert calls == [(10, 10), (10, 10), (10, 10, 10)]
        assert all(b.state is not None for b in t.measured)


def shared_support_states(dims, size, count, seed):
    """``count`` seeded mixed states of rank 3 on one random support."""
    rng = np.random.default_rng(seed)
    n = math.prod(dims)
    on = np.sort(rng.choice(n, size=size, replace=False)) if size else np.arange(n)
    states = []
    for _ in range(count):
        g = np.zeros((n, 3), dtype=complex)
        g[on] = rng.normal(size=(on.size, 3)) + 1j * rng.normal(size=(on.size, 3))
        m = g @ g.conj().T
        states.append(DensityMatrix(m / m.trace(), SubsystemLayout(dims, ("A", "B", "C"))))
    return states


class TestGatePerRow:
    @pytest.mark.parametrize("d,n", [(2, 1), (2, 4), (3, 3), (5, 2)])
    def test_run_corrections_equal_one_call_per_branch(self, d, n):
        t = run_ghz_distribution(d, n, ResourceState.maximally_entangled(d))
        target = ghz_ket(d, n + 1)
        for cb, b in zip(t.measured, t.branches, strict=True):
            alone = apply_phases(cb.state, protocols.phase_vector(cb.outcome, d), "B1")
            assert_same_state(b.state, alone)
            assert b.metrics["fidelity"] == linalg.fidelity_with_ket(alone, target)
            assert type(b.metrics["fidelity"]) is float


def random_phases(shape, seed):
    return np.exp(2j * np.pi * np.random.default_rng(seed).random(shape))


class TestPhases:
    """``apply_phases`` against the dense action of the diagonal gate, its
    oracle ``kraus_apply``, within the spectral tolerance (their roundings
    differ)."""

    def assert_close(self, got, want):
        assert np.array_equal(got.support, want.support)
        assert np.abs(got.block - want.block).max() <= policy.spectral_tol

    @pytest.mark.parametrize("dims,size", KERNEL_STATES + [((3, 2, 3), 7)])
    def test_equals_the_diagonal_unitary(self, dims, size):
        rho = kernel_state(dims, size, 41)
        for label, m in zip(rho.layout.labels, rho.layout.dims):
            g = random_phases(m, 42)
            self.assert_close(apply_phases(rho, g, label), kraus_apply(np.diag(g)[None], rho, (label,)))

    @pytest.mark.parametrize("dims,size", [((2, 2, 4), None), ((2, 4, 5), 9), ((3, 2, 3), 7)])
    def test_phases_per_row_of_a_stack(self, dims, size):
        states = shared_support_states(dims, size, 4, seed=43)
        for label, m in zip(("A", "B", "C"), dims):
            g = random_phases((4, m), 44)
            out = apply_phases(_stacked(states), g, label)
            lone = [apply_phases(s, gs, label) for s, gs in zip(states, g)]
            for i, (state, gs) in enumerate(zip(states, g)):
                assert_same_state(out._row(i), lone[i])  # each row as a lone run
                self.assert_close(lone[i], kraus_apply(np.diag(gs)[None], state, (label,)))

    def test_a_zero_entry_stays_positive_zero(self):
        # the encoding of pdskew.json: the factors exp(+-2*pi*i/3) have a
        # negative real part, so a product with a zero entry is -0.0 before
        # the +0.0 start.  Beside a maximally mixed ancilla, the resource's
        # 3 x 3 block becomes a 12 x 12 block with 108 zero entries
        mixed = DensityMatrix(np.eye(4) / 4, SubsystemLayout((4,), ("Z",)))
        rho = tensor(ResourceState.from_schmidt([0.2, 0.3, 0.5]).rho, mixed)
        out = apply_phases(rho, protocols.phase_vector(2, 3), "A")
        zeros = np.concatenate([out.block.real[out.block.real == 0], out.block.imag[out.block.imag == 0]])
        assert zeros.size > 100 and not np.signbit(zeros).any()

    def test_each_phase_is_checked(self):
        states = shared_support_states((2, 2, 4), None, 3, seed=45)
        for bad in (1.1, np.nan, np.inf):
            with pytest.raises(ValueError, match="not of modulus 1"):
                apply_phases(states[0], [1.0, bad], "A")
        rows = np.ones((3, 2), dtype=complex)
        rows[2, 1] = 1.1
        with pytest.raises(ValueError, match="not of modulus 1"):
            apply_phases(_stacked(states), rows, "A")
        with pytest.raises(ValueError, match="cannot act"):  # one row too many
            apply_phases(_stacked(states), np.ones((4, 2)), "A")
        with pytest.raises(ValueError, match="cannot act"):  # the factor has dimension 4
            apply_phases(states[0], np.ones(2), "C")
        with pytest.raises(ValueError, match="cannot act"):  # a lone state takes one vector
            apply_phases(states[0], np.ones((3, 2)), "A")


def dense_schmidt(psi, layout, left):
    """Schmidt coefficients as one dense SVD of the whole matrix across the cut."""
    lpos = [p for p, l in enumerate(layout.labels) if l in left]
    rpos = [p for p, l in enumerate(layout.labels) if l not in left]
    t = psi.amplitudes.reshape(layout.dims).transpose(lpos + rpos)
    mat = t.reshape(math.prod(layout.dims[p] for p in lpos), -1)
    return np.linalg.svd(mat, full_matrices=False)[1]


def every_cut(layout):
    n = layout.n_subsystems
    return [tuple(layout.labels[p] for p in (0,) + rest)
            for r in range(1, n) for rest in itertools.combinations(range(1, n), r - 1)]


class TestSupportDigitCuts:
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3, 2), (3, 2, 2, 2), (2,) * 6, (4, 1, 3)])
    def test_full_support_equals_the_dense_svd(self, dims):
        layout = SubsystemLayout(dims, tuple(f"L{i}" for i in range(len(dims))))
        psi = random_ket(layout.total_dim, np.random.default_rng(41))
        assert np.all(psi.amplitudes != 0)
        tops = bipartition_reports(psi, layout)
        assert not tops.flags.writeable
        for left, top in zip(every_cut(layout), tops, strict=True):
            dense = dense_schmidt(psi, layout, left)
            coeffs = schmidt_coefficients(psi, layout, left)
            assert np.array_equal(coeffs, dense)
            assert top == float(dense[0] ** 2)

    def test_each_value_is_the_square_a_float_takes(self):
        # a float's s**2 is pow(s, 2) and an array's ** 2 is s * s, which
        # differ in the last bit for about 1 value in 1000
        layout = SubsystemLayout((2, 3), ("A", "B"))
        rng = np.random.default_rng(43)
        for _ in range(1000):
            psi = random_ket(6, rng)
            [top] = bipartition_reports(psi, layout)
            assert top == float(schmidt_coefficients(psi, layout, ("A",))[0] ** 2)

    @pytest.mark.parametrize("d,n,phase",
                             [(2, 4, 1), (3, 3, 2), (5, 3, 1), (5, 3, 4), (4, 4, 3), (10, 3, 7)])
    def test_ghz_batched_equals_per_cut_and_the_dense_svd_within_ulps(self, d, n, phase):
        layout = SubsystemLayout((d,) * n, tuple(f"L{i}" for i in range(n)))
        psi = ghz_ket(d, n, phase)
        tops = bipartition_reports(psi, layout)
        for left, top in zip(every_cut(layout), tops, strict=True):
            coeffs = schmidt_coefficients(psi, layout, left)
            # the stacked SVD computes each matrix as a call of its own
            assert top == float(coeffs[0] ** 2)
            dense = dense_schmidt(psi, layout, left)
            assert coeffs.shape == dense.shape
            # a d x d matrix, not d x d^k: LAPACK may round another way
            assert np.abs(coeffs - dense).max() <= 4 * np.finfo(float).eps
            uniform = np.abs(dense - 1 / np.sqrt(dense.size)).max() <= policy.spectral_tol
            assert is_maximally_entangled(psi, layout, left) == uniform == (len(left) in (1, n - 1))

    def test_partial_support_pads_with_zeros(self):
        layout = SubsystemLayout((3, 4, 2), ("A", "B", "C"))
        amps = random_ket(24, np.random.default_rng(42)).amplitudes.copy()
        amps[[1, 5, 6, 7, 13, 20]] = 0
        psi = Ket.normalized(amps)
        for left in every_cut(layout):
            coeffs = schmidt_coefficients(psi, layout, left)
            dense = dense_schmidt(psi, layout, left)
            assert coeffs.shape == dense.shape
            assert np.allclose(coeffs, dense, rtol=0, atol=1e-15)
            with pytest.raises(ValueError, match="read-only"):
                coeffs[0] = 0

    def test_zero_ket_has_zero_coefficients(self):
        layout = SubsystemLayout((2, 3), ("A", "B"))
        coeffs = schmidt_coefficients(Ket.raw(np.zeros(6)), layout, ("A",))
        assert coeffs.tolist() == [0.0, 0.0]

    def test_a_branch_past_the_guard_reads_only_its_support(self, monkeypatch):
        # GHZ (2, 18): the branch ket has 2^19 entries, two of them nonzero
        monkeypatch.setattr(policy, "max_dim", 2**21)
        svds = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd",
                            lambda a, **kw: (svds.append(a.shape), svd(a, **kw))[1])
        t = run_ghz_distribution(2, 18, ResourceState.maximally_entangled(2))
        assert t.metrics["maximally_entangled_all_branches"]
        assert svds == [(2, 2), (2, 2)]


class TestStackedTraceDistance:
    def test_equals_the_loop(self):
        rng = np.random.default_rng(51)
        a = [random_density(6, rng) for _ in range(5)]
        b = [random_density(6, rng) for _ in range(5)]
        stacked = trace_distance(_stacked(a), _stacked(b))
        assert stacked.shape == (5,)
        for td, x, y in zip(stacked, a, b):
            assert td == trace_distance(x, y)
        assert type(trace_distance(a[0], b[0])) is float

    def test_stack_of_different_supports(self):
        rng = np.random.default_rng(52)
        layout = SubsystemLayout((20,), ("A",))
        states = []
        for on in (np.arange(0, 4), np.arange(3, 9), np.arange(15, 20)):
            m = np.zeros((20, 20), dtype=complex)
            m[np.ix_(on, on)] = random_density(on.size, rng).entries
            states.append(DensityMatrix(m, layout))
        stack = _stacked(states)
        for row, state in zip(stack.entries, states):
            assert np.array_equal(row, state.entries)
        pairs = list(itertools.combinations(states, 2))
        loop = [trace_distance(x, y) for x, y in pairs]
        assert protocols._pairwise_trace_distances(stack) == loop

    def test_privacy_report_and_baseline_equal_the_pairwise_loop(self):
        d = 4
        res = ResourceState.from_schmidt([0.4, 0.3, 0.2, 0.1])
        sent = [run_private_dit(d, x, res) for x in range(d)]
        report = privacy_report(sent)
        charlie = [partial_trace(t.stages["transmitted"], ("C",)) for t in sent]
        for (i, j), err in report["helstrom_errors"].items():
            assert err == 0.5 * (1.0 - trace_distance(charlie[i], charlie[j]))
        assert report["max_pairwise_trace_distance"] == max(
            [0.0, *itertools.starmap(trace_distance, itertools.combinations(charlie, 2))])
        assert privacy_report(sent[:1])["helstrom_errors"] == {}
        encodings = protocols.classical_flag_encodings(3)
        marginals = [partial_trace(e, ("C",)) for e in encodings]
        out = fixed_configuration_baseline(3, encodings)
        assert out["min_pairwise_charlie_trace_distance"] == min(
            [1.0, *itertools.starmap(trace_distance, itertools.combinations(marginals, 2))])
        assert type(out["min_pairwise_charlie_trace_distance"]) is float


class TestStridePlans:
    def test_no_plan_tabulates_the_basis(self, monkeypatch):
        # GHZ (2, 14): a table over the 2^16 basis states would hold 0.5 MB
        monkeypatch.setattr(policy, "max_dim", 2**17)
        res = ResourceState.maximally_entangled(2)
        plans = (linalg._split, linalg._measure_terms, linalg._trace_terms,
                 linalg._coincidence_terms)
        for plan in plans:
            plan.cache_clear()
        tracemalloc.start()
        try:
            run_ghz_distribution(2, 14, res)
            held = tracemalloc.get_traced_memory()[0]
            for plan in plans:
                plan.cache_clear()
            held -= tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 64e3

    def test_the_ancilla_is_one_index(self, monkeypatch):
        # the receivers' |0..0> is its one support index, not a cached ket
        # over the 2^10 basis states
        built = []
        monkeypatch.setattr(protocols, "basis_ket", lambda *args: built.append(args))
        t = run_ghz_distribution(2, 10, ResourceState.maximally_entangled(2))
        assert built == []
        ancilla = partial_trace(t.stages["extended"], [f"A{i}" for i in range(1, 11)])
        assert ancilla.support.tolist() == [0] and np.isclose(ancilla.block[0, 0], 1, rtol=0)
        assert t.stages["extended"].support.size == 2  # |00> and |11> on A, C, ancillas 0

    def test_partial_trace_past_64_factors(self):
        # numpy's unravel_index takes at most 64 dimensions (32 before numpy 2)
        dims = (1,) * 35 + (2,) + (1,) * 35 + (2,)
        layout = SubsystemLayout(dims, tuple(f"L{i}" for i in range(len(dims))))
        rng = np.random.default_rng(61)
        rho = random_density(4, rng, layout)
        reduced = partial_trace(rho, ["L35"])
        assert reduced.layout.dims == (2,)
        expected = rho.entries.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
        assert np.allclose(reduced.entries, expected, atol=1e-15)
        # the same bits as on the two factors that are not trivial
        pair = DensityMatrix(rho.entries, SubsystemLayout((2, 2), ("a", "b")))
        assert np.array_equal(partial_trace(rho, ["L71"]).entries, partial_trace(pair, ["b"]).entries)


def list_privacy_report(transcripts):
    """The privacy report as it was built from lone runs: each controller
    marginal traced on its own, each pair's trace distance and total
    variation taken on its own."""
    charlie = [partial_trace(t.stages["transmitted"], ("C",)) for t in transcripts]
    pmfs = [np.asarray(t.metrics["charlie_pmf"]) for t in transcripts]
    pairs = list(itertools.combinations(range(len(transcripts)), 2))
    tds = {(i, j): trace_distance(charlie[i], charlie[j]) for i, j in pairs}
    tvs = [total_variation(pmfs[i], pmfs[j]) for i, j in pairs]
    return {
        "max_pairwise_trace_distance": max([0.0, *tds.values()]),
        "max_pairwise_outcome_tv": max([0.0, *tvs]),
        "helstrom_errors": {pair: 0.5 * (1.0 - td) for pair, td in tds.items()},
        "charlie_pmfs": [p.tolist() for p in pmfs],
    }


def resource_specs(d, tmp_path):
    """The maximal resource, a skewed Schmidt spectrum and an explicit
    full-support state from a file, as the CLI spells them."""
    rho = random_density(d * d, np.random.default_rng(70 + d)).entries
    path = tmp_path / f"resource{d}.json"
    path.write_text(json.dumps({"dims": [d, d], "labels": ["X", "Y"],
                                "entries": [[[z.real, z.imag] for z in row] for row in rho]}))
    spectrum = np.arange(1, d + 1) / (d * (d + 1) / 2)
    return ["max", "schmidt:" + ",".join(repr(float(s)) for s in spectrum), f"file:{path}"]


class TestPrivateDitEnsemble:
    """``run_private_dit_ensemble`` against the lone run of every message and
    the report built from them, through the serializer's JSON and CSV."""

    HEADER = {"command": "run", "protocol": "private-dit"}

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("per_stack", ["1", "2", "d"])
    def test_equals_the_lone_runs(self, d, per_stack, tmp_path, monkeypatch):
        stacks = []
        stack_core = protocols._private_dit_stack

        def recording(d, phases, rho0):
            stacks.append(len(rho0.block))
            return stack_core(d, phases, rho0)

        monkeypatch.setattr(protocols, "_private_dit_stack", recording)
        for spec in resource_specs(d, tmp_path):
            res = _parse_resource(spec, d)
            lone = [run_private_dit(d, x, res) for x in range(d)]
            privacy = list_privacy_report(lone)
            assert privacy_report(lone) == privacy
            rows = d if per_stack == "d" else int(per_stack)
            cost = (d * min(d, res.rho.support.size)) ** 2
            monkeypatch.setattr(protocols, "_ENSEMBLE_ENTRIES", rows * cost)
            for x in range(d):
                stacks.clear()
                t, report = run_private_dit_ensemble(d, x, res)
                sizes = [min(rows, d - i) for i in range(0, d, rows)]
                assert sorted(stacks) == sorted(sizes) and stacks[-1] == sizes[x // rows]
                assert report == privacy
                assert (dumps_json(transcript_to_dict(t, self.HEADER, report))
                        == dumps_json(transcript_to_dict(lone[x], self.HEADER, privacy)))
                assert (csv_text(transcript_metric_row(t))
                        == csv_text(transcript_metric_row(lone[x])))
                for cb, lone_cb in zip(t.measured, lone[x].measured):
                    assert cb.probability == lone_cb.probability
                    assert (cb.state is None) == (lone_cb.state is None)
                    if cb.state is not None:
                        assert_same_state(cb.state, lone_cb.state)

    def test_refuses_a_message_out_of_range(self):
        with pytest.raises(ValueError, match="message 3 out of range for dimension 3"):
            run_private_dit_ensemble(3, 3, ResourceState.maximally_entangled(3))

    def test_peak_stays_near_a_lone_run(self):
        # at d = 16 each message runs alone, so the ensemble holds little
        # beyond one lone run: the transcript of x and the controller's states
        d = 16
        res = ResourceState.maximally_entangled(d)
        run_private_dit_ensemble(d, 5, res)  # the plans, cached
        tracemalloc.start()
        try:
            lone = []
            for x in range(d):
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                run_private_dit(d, x, res)
                lone.append(tracemalloc.get_traced_memory()[1] - start)
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            run_private_dit_ensemble(d, 5, res)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * max(lone), (peak, max(lone))
