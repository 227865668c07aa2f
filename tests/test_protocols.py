import tracemalloc

import numpy as np
import pytest

from qswitch_lab import (
    DensityMatrix,
    Ket,
    ResourceGuardError,
    ResourceState,
    SubsystemLayout,
    basis_ket,
    classical_flag_encodings,
    clone_fan_out,
    concurrence_2qubit,
    dfs_phase_encodings,
    fixed_configuration_baseline,
    ghz_ket,
    helstrom_error,
    necessity_sweep,
    partial_trace,
    policy,
    privacy_report,
    run_bipartite_establishment,
    run_ghz_distribution,
    run_private_dit,
    trace_distance,
)

import qswitch_lab
from qswitch_lab import linalg, protocols
from qswitch_lab.protocols import phase_vector
from qswitch_lab.numeric import MAX_GGM_PARTIES
from qswitch_lab.serialize import dumps_json, transcript_to_dict

from conftest import (
    bell_phase_flip_mixture,
    clone_extend_unitary,
    kraus_apply,
    mutual_information,
    random_density,
    random_ket,
    refused_before_allocating,
)


# ---------------------------------------------------------------------------
# Independent oracles (raw numpy, no use of the code paths under test)
# ---------------------------------------------------------------------------


def oracle_private_bit_success(alpha, x):
    """Exhaustive branch enumeration for d = 2, resource sqrt(a)|00>+sqrt(1-a)|11>.

    Encoding is Z^x on the first qudit; both parties measure the +-sign
    Fourier basis and decode via the outcome sum mod 2.
    """
    psi = np.zeros(4, dtype=complex)
    psi[0] = np.sqrt(alpha)
    psi[3] = np.sqrt(1 - alpha) * (-1.0) ** x
    f = [np.array([1, 1]) / np.sqrt(2), np.array([1, -1]) / np.sqrt(2)]
    success = 0.0
    for mb in range(2):
        for mc in range(2):
            amp = np.kron(f[mb], f[mc]).conj() @ psi
            if (mb + mc) % 2 == x:
                success += abs(amp) ** 2
    return success


def oracle_closed_form(alpha):
    return (1 + 2 * np.sqrt(alpha * (1 - alpha))) / 2


def oracle_optimal_two_state_success(runs):
    """Best two-message decode averaged over the controller's announcement,
    from a second controller measurement of each run's ``transmitted`` stage."""
    d = runs[0].params["d"]
    fb = qswitch_lab.fourier_basis(d)
    branch_states = []
    for t in runs:
        per_mc = {}
        for cb in qswitch_lab.projective_measure(t.stages["transmitted"], fb, "C"):
            per_mc[cb.outcome] = (cb.probability, cb.state)
        branch_states.append(per_mc)
    total = 0.0
    for mc in range(d):
        p0, s0 = branch_states[0][mc]
        p1, s1 = branch_states[1][mc]
        if s0 is None or s1 is None:
            continue
        weight = 0.5 * (p0 + p1)
        err = helstrom_error(s0, s1, p0 * 0.5 / weight)
        total += weight * (1.0 - err)
    return float(total)


def oracle_bipartite_branch_states(alpha):
    """Post-correction receiver-pair states for d = 2, per controller outcome."""
    psi = np.zeros(8, dtype=complex)  # (A, B, C)
    psi[0] = np.sqrt(alpha)
    psi[7] = np.sqrt(1 - alpha)
    f = [np.array([1, 1]) / np.sqrt(2), np.array([1, -1]) / np.sqrt(2)]
    out = []
    for m in range(2):
        cond = psi.reshape(4, 2) @ f[m].conj()
        p = np.linalg.norm(cond) ** 2
        cond = cond / np.linalg.norm(cond)
        z_m = np.diag([1.0, (-1.0) ** m])
        corrected = np.kron(np.eye(2), z_m) @ cond
        out.append((p, corrected))
    return out


# ---------------------------------------------------------------------------
# Local unitaries
# ---------------------------------------------------------------------------


class TestLocalUnitaries:
    def test_phase_encoding_identity_and_z(self):
        assert np.allclose(np.diag(phase_vector(0, 3)), np.eye(3))
        assert np.allclose(phase_vector(1, 2), [1, -1])

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_phase_encoding_generates_phased_family(self, d):
        phi0 = ghz_ket(d, 2)
        for x in range(d):
            u = np.diag(phase_vector(x, d))
            rotated = np.kron(u, np.eye(d)) @ phi0.amplitudes
            assert np.abs(rotated - ghz_ket(d, 2, x).amplitudes).max() < 1e-12

    def test_correction_is_z_power_for_qubits(self):
        assert np.allclose(phase_vector(0, 2), [1, 1])
        assert np.allclose(phase_vector(1, 2), [1, -1])

    @pytest.mark.parametrize("k,d", [(3, 3), (-1, 2), (2, 2)])
    def test_phase_index_out_of_range(self, k, d):
        with pytest.raises(ValueError, match="out of range"):
            phase_vector(k, d)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_correction_restores_zero_branch(self, d):
        # conditional state after controller outcome m carries exp(-2pi i jm/d)
        for m in range(d):
            cond = np.zeros(d * d, dtype=complex)
            for j in range(d):
                cond[j * d + j] = np.exp(-2j * np.pi * j * m / d) / np.sqrt(d)
            fixed = np.kron(np.eye(d), np.diag(phase_vector(m, d))) @ cond
            assert abs(abs(np.vdot(ghz_ket(d, 2).amplitudes, fixed)) - 1.0) < 1e-12

    def test_clone_unitary_on_basis(self):
        v = clone_extend_unitary(2, 1)
        # CNOT action: |k, 0> -> |k, k>
        assert v[0, 0] == 1.0 and v[3, 2] == 1.0
        assert v.shape == (4, 4)
        u3 = clone_extend_unitary(3, 2)
        src = 2 * 9 + 0 * 3 + 0  # |2, 0, 0>
        dst = 2 * 9 + 2 * 3 + 2  # |2, 2, 2>
        assert u3[dst, src] == 1.0

    def test_clone_unitary_is_unitary(self):
        for d, n in ((2, 1), (2, 3), (3, 2)):
            u = clone_extend_unitary(d, n)
            assert np.abs(u.conj().T @ u - np.eye(u.shape[0])).max() <= 1e-12

    @pytest.mark.parametrize("d,n", [(2, 1), (2, 3), (3, 2), (5, 2)])
    def test_clone_permutation_matches_unitary_oracle(self, d, n, rng):
        # spectators S0, S1, S2 before, between and after the acted labels;
        # S1 is trivial at the larger sizes to keep the state at most 500-dim
        acted = ["A"] + [f"A{i}" for i in range(1, n + 1)]
        labels = ["S0", acted[0], "S1", *acted[1:], "S2"]
        dims = [2, d, 2 if d ** (n + 1) <= 16 else 1, *[d] * n, 2]
        rho = random_density(int(np.prod(dims)), rng, SubsystemLayout(tuple(dims), tuple(labels)))
        u = clone_extend_unitary(d, n)
        for order in (acted, acted[::-1], [acted[-1], *acted[:-1]]):
            fast = clone_fan_out(rho, order[0], order[1:])
            dense = kraus_apply(u[None], rho, order)
            assert fast.entries.tobytes() == dense.entries.tobytes()

    def test_clone_permutation_is_the_unitary_index_map(self):
        # a diagonal state of distinct entries: the fan-out moves the entry of
        # basis state i to the row where column i of the unitary holds its one
        for d, n in ((2, 1), (3, 2), (4, 2)):
            u = clone_extend_unitary(d, n)
            p = np.arange(1.0, u.shape[0] + 1)
            labels = ("A",) + tuple(f"A{i}" for i in range(1, n + 1))
            layout = SubsystemLayout((d,) * (n + 1), labels)
            rho = DensityMatrix(np.diag(p / p.sum()), layout)
            out = clone_fan_out(rho, "A", labels[1:])
            assert np.array_equal(out.entries.diagonal()[u.argmax(axis=0)], rho.entries.diagonal())

    def test_clone_fan_out_rejects_bad_labels(self):
        rho = ghz_ket(2, 3).density(SubsystemLayout((2, 2, 2), ("A", "A1", "C")))
        with pytest.raises(ValueError, match="unknown label"):
            clone_fan_out(rho, "A", ("A9",))
        with pytest.raises(ValueError, match="repeated labels"):
            clone_fan_out(rho, "A", ("A1", "A"))
        with pytest.raises(ValueError, match="at least one target"):
            clone_fan_out(rho, "A", ())
        mixed = basis_ket(6, 0).density(SubsystemLayout((2, 3), ("A", "A1")))
        with pytest.raises(ValueError, match="one dimension"):
            clone_fan_out(mixed, "A", ("A1",))

    def test_clone_fan_out_builds_nothing_over_the_basis(self):
        # (2, 40): 2^42 basis states, 2 support indices; the GHZ resource with
        # its 40 ancillas after it, cloned onto every ancilla
        n = 40
        layout = SubsystemLayout((2,) * (n + 2), ("A", "C") + tuple(f"A{i}" for i in range(1, n + 1)))
        pair = ghz_ket(2, 2).density()
        rho = DensityMatrix._of_block(layout, np.array([0, 3 << n]), pair.block)  # |00>, |11> then 0s
        tracemalloc.start()
        try:
            out = clone_fan_out(rho, "A", [f"A{i}" for i in range(1, n + 1)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.support.tolist() == [0, 2 ** (n + 2) - 1]
        assert np.array_equal(out.block, rho.block)
        assert peak < 1 << 20

    def test_gates_built_once_and_read_only(self):
        gate = phase_vector(1, 3)
        assert phase_vector(1, 3) is gate
        with pytest.raises(ValueError, match="read-only"):
            gate[0] = 0.0

    def test_clone_builds_ghz_from_pair(self):
        layout = SubsystemLayout((2, 2, 2), ("A", "A1", "C"))
        rho = Ket.normalized([1, 0, 0, 0, 0, 1, 0, 0]).density(layout)  # |000> + |101>
        out = kraus_apply(clone_extend_unitary(2, 1)[None], rho, ("A", "A1"))
        from qswitch_lab import fidelity_with_ket

        assert fidelity_with_ket(out, ghz_ket(2, 3)) > 1 - 1e-12


# ---------------------------------------------------------------------------
# Private dit transmission
# ---------------------------------------------------------------------------


class TestPrivateDit:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_perfect_at_maximal_entanglement(self, d):
        res = ResourceState.maximally_entangled(d)
        for x in range(d):
            t = run_private_dit(d, x, res)
            assert abs(t.metrics["success_probability"] - 1.0) < 1e-10
            joint = np.asarray(t.metrics["joint_pmf"])
            for mb in range(d):
                for mc in range(d):
                    expected = 1.0 / d if (mb + mc) % d == x else 0.0
                    assert abs(joint[mb, mc] - expected) < 1e-10
            pmf = np.asarray(t.metrics["charlie_pmf"])
            assert np.abs(pmf - 1.0 / d).max() < 1e-10

    def test_branch_probabilities_sum_to_one(self):
        t = run_private_dit(3, 2, ResourceState.maximally_entangled(3))
        assert abs(t.metrics["branch_probability_total"] - 1.0) < 1e-10
        assert len(t.branches) == 9  # every (m_C, m_B) pair, nulls included
        nulls = [b for b in t.branches if b.state is None]
        assert len(nulls) == 6  # delta structure: one live receiver outcome per m_C

    def test_skewed_resource_matches_oracles(self):
        res = ResourceState.from_schmidt((0.25, 0.75))
        for x in range(2):
            t = run_private_dit(2, x, res)
            got = t.metrics["success_probability"]
            assert abs(got - oracle_private_bit_success(0.25, x)) < 1e-12
            assert abs(got - oracle_closed_form(0.25)) < 1e-9
        assert abs(got - 0.9330127018922193) < 1e-12

    def test_explicit_resource_roundtrip(self):
        layout = SubsystemLayout((2, 2), ("A", "C"))
        res = ResourceState.explicit(ghz_ket(2, 2).density(layout))
        t = run_private_dit(2, 1, res)
        assert abs(t.metrics["success_probability"] - 1.0) < 1e-10

    def test_message_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            run_private_dit(2, 2, ResourceState.maximally_entangled(2))

    def test_resource_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            run_private_dit(3, 0, ResourceState.maximally_entangled(2))

    def test_resource_guarded_before_its_ket(self):
        # the resource is a d^2-dim state: d = 65 gives 4225 > 4096
        message = "resource needs total dimension 4225, above the configured limit of 4096"
        refused_before_allocating(lambda: ResourceState.maximally_entangled(65), message)
        refused_before_allocating(lambda: ResourceState.from_schmidt([1 / 65] * 65), message)

    def test_private_dit_guarded_on_entry(self):
        # an explicit resource passes no classmethod guard; the run refuses
        # it before the encoding builds anything of the 4225-dim state
        layout = SubsystemLayout((65, 65), ("A", "C"))
        res = ResourceState.explicit(ghz_ket(65, 2).density(layout))
        refused_before_allocating(
            lambda: run_private_dit(65, 0, res), "private-dit needs total dimension 4225"
        )

    @pytest.mark.parametrize("spectrum", [(np.nan, 1.0), (0.5, np.nan), (np.inf, 0.0)])
    def test_non_finite_schmidt_spectrum_rejected(self, spectrum):
        with pytest.raises(ValueError, match="Schmidt spectrum"):
            ResourceState.from_schmidt(spectrum)

    def test_negative_receiver_probability_bounded_by_spectral_tol(self, monkeypatch):
        # within the default spectral tolerance the two probabilities of
        # -5e-12 read 0.0 (the bits the run gave before the bound), past a
        # tighter one they raise; the value is the left-to-right sum of the
        # receiver's support terms
        rho = DensityMatrix(bell_phase_flip_mixture(-1e-11), SubsystemLayout((2, 2), ("A", "C")))
        res = ResourceState.explicit(rho)
        joint = run_private_dit(2, 0, res).metrics["joint_pmf"]
        live, zero = "0x1.000000000afe9p-1", "0x0.0p+0"
        assert [[v.hex() for v in row] for row in joint] == [[live, zero], [zero, live]]
        monkeypatch.setattr(policy, "spectral_tol", 1e-12)
        with pytest.raises(ValueError, match="receiver outcome probability is -5.0000004137018526e-12"):
            run_private_dit(2, 0, res)

    def test_transcript_stages_are_recorded(self):
        t = run_private_dit(2, 0, ResourceState.maximally_entangled(2))
        assert list(t.stages) == ["resource", "encoded", "transmitted"]
        assert t.stages["transmitted"].layout.labels == ("B", "C")


def decode_table(transcripts):
    """p(x, x_hat) of a uniform ensemble of one private-dit run per message:
    the receiver decodes x_hat = m_B + m_C mod d."""
    d = len(transcripts)
    assert sorted(t.params["x"] for t in transcripts) == list(range(d))
    table = np.zeros((d, d))
    for t in transcripts:
        joint = np.asarray(t.metrics["joint_pmf"])
        for mb in range(d):
            for mc in range(d):
                table[t.params["x"], (mb + mc) % d] += joint[mb, mc] / d
    return table


class TestPrivacy:
    @pytest.mark.parametrize("d", [2, 3])
    def test_no_leakage_at_maximal_entanglement(self, d):
        res = ResourceState.maximally_entangled(d)
        ts = [run_private_dit(d, x, res) for x in range(d)]
        rep = privacy_report(ts)
        assert rep["max_pairwise_trace_distance"] <= 1e-12
        assert rep["max_pairwise_outcome_tv"] <= 1e-10
        assert all(abs(e - 0.5) < 1e-10 for e in rep["helstrom_errors"].values())

    def test_no_leakage_even_for_skewed_spectra(self, rng):
        # phases never reach the controller's marginal, whatever the spectrum
        for _ in range(10):
            lam = rng.dirichlet(np.ones(2))
            res = ResourceState.from_schmidt(tuple(lam))
            ts = [run_private_dit(2, x, res) for x in range(2)]
            rep = privacy_report(ts)
            assert rep["max_pairwise_trace_distance"] <= 1e-12

    @pytest.mark.parametrize("d", range(2, 11))
    def test_helstrom_errors_read_off_the_trace_distance(self, d, rng):
        for res in (
            ResourceState.maximally_entangled(d),
            ResourceState.from_schmidt(rng.dirichlet(np.ones(d))),
        ):
            ts = [run_private_dit(d, x, res) for x in range(d)]
            marginals = [partial_trace(t.stages["transmitted"], ("C",)) for t in ts]
            for (i, j), err in privacy_report(ts)["helstrom_errors"].items():
                assert err == helstrom_error(marginals[i], marginals[j], 0.5)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_receiver_reads_log2_d_bits_at_maximal_entanglement(self, d):
        # the decode table p(x, x_hat) of the uniform ensemble carries log2 d
        # bits over a maximally entangled resource and none over a product one,
        # whose phases are global
        for spectrum, bits, success in [((1 / d,) * d, np.log2(d), 1.0),
                                        ((1.0,) + (0.0,) * (d - 1), 0.0, 1 / d)]:
            res = ResourceState.from_schmidt(spectrum)
            table = decode_table([run_private_dit(d, x, res) for x in range(d)])
            assert abs(table.sum() - 1.0) < 1e-12
            assert abs(mutual_information(table) - bits) < 1e-9
            assert np.abs(np.diag(table) * d - success).max() < 1e-9

    def test_report_rejects_an_empty_ensemble(self):
        with pytest.raises(ValueError, match="at least one transcript"):
            privacy_report([])

    def test_report_rejects_mixed_resources(self):
        for pair in [
            [run_private_dit(2, 0, ResourceState.maximally_entangled(2)),
             run_private_dit(3, 1, ResourceState.maximally_entangled(3))],
            [run_private_dit(2, 0, ResourceState.maximally_entangled(2)),
             run_private_dit(2, 1, ResourceState.from_schmidt((0.7, 0.3)))],
        ]:
            with pytest.raises(ValueError) as err:
                privacy_report(pair)
            assert str(err.value) == "transcripts must share dimension and resource"

    def test_mismatched_transcripts_rejected(self):
        a = run_private_dit(2, 0, ResourceState.maximally_entangled(2))
        b = run_private_dit(2, 1, ResourceState.from_schmidt((0.25, 0.75)))
        with pytest.raises(ValueError, match="share"):
            privacy_report([a, b])

    @pytest.mark.parametrize("report", [privacy_report])
    def test_ensemble_compares_resource_states_not_names(self, report):
        maximal = ResourceState.explicit(ResourceState.maximally_entangled(2).rho)
        skewed = ResourceState.explicit(ResourceState.from_schmidt((0.9, 0.1)).rho)
        assert maximal.name == skewed.name == "explicit"
        with pytest.raises(ValueError, match="share dimension and resource"):
            report([run_private_dit(2, 0, maximal), run_private_dit(2, 1, skewed)])
        named = (maximal, ResourceState.maximally_entangled(2))
        same = [run_private_dit(2, x, res) for x, res in enumerate(named)]
        report(same)  # one state under two names
        assert [t.params["resource"] for t in same] == ["explicit", "max"]

    @pytest.mark.parametrize("report", [privacy_report])
    def test_ensemble_holds_private_dit_runs_only(self, report):
        # each ensemble shares d and the resource, so only the protocol
        # check tells it from a private-dit ensemble
        res = ResourceState.maximally_entangled(2)
        ghz = run_ghz_distribution(2, 2, res)
        bip = run_bipartite_establishment(2, res)
        for ensemble, kinds in [
            ([ghz, ghz], "['ghz']"),
            ([run_private_dit(2, 0, res), ghz], "['ghz', 'private-dit']"),
            ([bip, bip], "['bipartite']"),
        ]:
            with pytest.raises(ValueError) as err:
                report(ensemble)
            assert str(err.value) == f"need private-dit transcripts only, got {kinds}"


# ---------------------------------------------------------------------------
# Entanglement establishment
# ---------------------------------------------------------------------------


class TestBipartite:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_perfect_at_maximal_entanglement(self, d):
        t = run_bipartite_establishment(d, ResourceState.maximally_entangled(d))
        assert list(t.stages) == ["resource", "extended", "cloned", "transmitted"]
        assert t.metrics["fidelity_min"] > 1 - 1e-10
        for b in t.branches:
            assert b.metrics["fidelity"] > 1 - 1e-10
        assert t.metrics["maximally_entangled_all_branches"]

    def test_d3_intermediate_ggm(self):
        t = run_bipartite_establishment(3, ResourceState.maximally_entangled(3))
        assert abs(t.metrics["pre_measurement_ggm"] - 2 / 3) < 1e-10

    def test_skewed_resource_concurrence_matches_oracle(self):
        alpha = 0.25
        t = run_bipartite_establishment(2, ResourceState.from_schmidt((alpha, 1 - alpha)))
        branch_states = oracle_bipartite_branch_states(alpha)
        avg = sum(p * np.outer(v, v.conj()) for p, v in branch_states)
        layout = SubsystemLayout((2, 2), ("A", "B"))
        oracle_conc = concurrence_2qubit(DensityMatrix(avg, layout))
        got = t.metrics["average_output_concurrence"]
        assert abs(got - oracle_conc) < 1e-10
        assert got < 1 - 1e-3
        assert abs(got - 2 * np.sqrt(alpha * (1 - alpha))) < 1e-10

    def test_branch_fidelity_matches_oracle(self):
        alpha = 0.1
        t = run_bipartite_establishment(2, ResourceState.from_schmidt((alpha, 1 - alpha)))
        phi = ghz_ket(2, 2).amplitudes
        for b, (p, v) in zip(t.branches, oracle_bipartite_branch_states(alpha)):
            assert abs(b.probability - p) < 1e-12
            assert abs(b.metrics["fidelity"] - abs(np.vdot(phi, v)) ** 2) < 1e-12


class TestGHZ:
    @pytest.mark.parametrize(
        "d,n", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 1), (3, 2), (3, 3)]
    )
    def test_perfect_at_maximal_entanglement(self, d, n):
        t = run_ghz_distribution(d, n, ResourceState.maximally_entangled(d))
        assert t.metrics["fidelity_min"] > 1 - 1e-10
        assert t.metrics["maximally_entangled_all_branches"]
        if n + 2 <= MAX_GGM_PARTIES:
            assert abs(t.metrics["pre_measurement_ggm"] - (d - 1) / d) < 1e-10
        else:
            assert "pre_measurement_ggm" not in t.metrics
            assert t.metrics["pre_measurement_ggm_skipped"] == (
                f"{n + 2} parties exceed the bipartition cap of {MAX_GGM_PARTIES}"
            )

    def test_reduction_to_bipartite_qubits(self):
        res = ResourceState.from_schmidt((0.3, 0.7))
        g = run_ghz_distribution(2, 1, res)
        b = run_bipartite_establishment(2, res)
        for key in ("fidelity_mean", "fidelity_min", "pre_measurement_ggm"):
            assert abs(g.metrics[key] - b.metrics[key]) < 1e-12
        assert abs(
            g.metrics["average_output_concurrence"] - b.metrics["average_output_concurrence"]
        ) < 1e-12

    def test_reduction_to_bipartite_qutrits(self):
        res = ResourceState.from_schmidt((0.2, 0.3, 0.5))
        g = run_ghz_distribution(3, 1, res)
        b = run_bipartite_establishment(3, res)
        for key in ("fidelity_mean", "fidelity_min", "pre_measurement_ggm"):
            assert abs(g.metrics[key] - b.metrics[key]) < 1e-12

    @staticmethod
    def _dense_clone(rho, source, targets):
        d = rho.layout.dims[rho.layout.index_of(source)]
        return kraus_apply(clone_extend_unitary(d, len(targets))[None], rho, (source, *targets))

    @pytest.mark.parametrize(
        "protocol,d,n", [("ghz", 2, 4), ("ghz", 3, 3), ("ghz", 4, 2), ("bipartite", 3, 1)]
    )
    def test_transcript_json_matches_dense_clone_oracle(self, protocol, d, n, monkeypatch):
        def payload():
            resource = ResourceState.maximally_entangled(d)
            if protocol == "bipartite":
                t = run_bipartite_establishment(d, resource)
            else:
                t = run_ghz_distribution(d, n, resource)
            return dumps_json(transcript_to_dict(t)).encode()

        fast = payload()
        monkeypatch.setattr(protocols, "clone_fan_out", self._dense_clone)
        assert payload() == fast

    def test_largest_ghz_states_match_dense_clone_oracle(self, monkeypatch):
        # d=5, N=2 serializes to 77 MB of JSON; compare what it is made of
        # instead: every state bit for bit, and the metrics
        def parts():
            t = run_ghz_distribution(5, 2, ResourceState.maximally_entangled(5))
            states = list(t.stages.values())
            states += [b.state for b in t.branches if b.state is not None]
            return [s.entries.tobytes() for s in states], repr(t.metrics)

        fast = parts()
        monkeypatch.setattr(protocols, "clone_fan_out", self._dense_clone)
        assert parts() == fast

    def test_to_ket_decomposes_only_the_support(self, monkeypatch):
        # every state after the clone lies in span{|j>_A|j..j>_B|j>_C}, so each
        # ket is read from a d x d block, not from the d^(N+2) or d^(N+1) matrix
        eigh, to_ket = np.linalg.eigh, DensityMatrix.to_ket
        shapes, calls = [], []

        def recording_eigh(a, *args, **kwargs):
            shapes.append(a.shape)
            return eigh(a, *args, **kwargs)

        def counting_to_ket(self, *args, **kwargs):
            calls.append(self.dim)
            return to_ket(self, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        monkeypatch.setattr(DensityMatrix, "to_ket", counting_to_ket)
        t = run_ghz_distribution(3, 3, ResourceState.maximally_entangled(3))
        assert calls == [3**5] + [3**4] * 3  # the transmitted state, then each branch
        assert shapes == [(3, 3)] * len(calls)
        assert t.metrics["maximally_entangled_all_branches"]

    def test_resource_guard(self):
        with pytest.raises(ResourceGuardError, match="limit"):
            run_ghz_distribution(9, 3, ResourceState.maximally_entangled(9))

    def test_receiver_count_validated(self):
        with pytest.raises(ValueError, match="receiver"):
            run_ghz_distribution(2, 0, ResourceState.maximally_entangled(2))


class TestExtendedStage:
    """The receivers' ancillas |0..0> join the resource as one index move:
    support index a*d + c goes to a*d^(N+1) + c on ("A", A1..AN, "C"), and
    the block keeps its bits, signed zeros too."""

    @staticmethod
    def resources(d, rng):
        spectra = [np.linspace(1.0, 2.0, d) / np.linspace(1.0, 2.0, d).sum(), np.eye(d)[0]]
        return {
            "max": ResourceState.maximally_entangled(d).rho,
            "schmidt": ResourceState.from_schmidt(spectra[0]).rho,
            "mixed": random_density(d * d, rng, SubsystemLayout((d, d), ("A", "C"))),
            "sweep stack": protocols._schmidt_states(spectra),
        }

    @staticmethod
    def dense_extended(entries, d, n):
        """np.kron of the resource with |0..0><0..0|, its ancillas moved
        between A and C by a transpose."""
        zero = np.zeros((d ** n, d ** n))
        zero[0, 0] = 1.0
        m = np.kron(entries, zero).reshape((d, d, d ** n) * 2)
        return m.transpose(0, 2, 1, 3, 5, 4).reshape(d ** (n + 2), d ** (n + 2))

    @pytest.mark.parametrize("d,n", [(2, 1), (3, 1), (2, 3), (3, 3)])
    def test_each_index_moves_and_the_block_keeps_its_bits(self, d, n, rng):
        labels = ("A",) + tuple(f"A{i}" for i in range(1, n + 1)) + ("C",)
        for name, rho0 in self.resources(d, rng).items():
            extended = protocols._establishment_stack(d, n, rho0, "ghz")[0]["extended"]
            a, c = np.divmod(rho0.support, d)
            assert extended.layout == SubsystemLayout((d,) * (n + 2), labels), name
            assert np.array_equal(extended.support, a * d ** (n + 1) + c), name
            bits = [np.ascontiguousarray(b).view(np.int64) for b in (extended.block, rho0.block)]
            assert np.array_equal(*bits), name
            if rho0.block.ndim == 2:
                assert np.array_equal(extended.entries, self.dense_extended(rho0.entries, d, n)), name

    def test_a_signed_zero_keeps_its_sign(self):
        # a product with 1 + 0j, as np.kron with the ancilla took it, turns
        # a -0.0 imaginary part into +0.0; the move keeps it
        rho0 = ResourceState.maximally_entangled(2).rho
        block = rho0.block.copy()
        block.imag[0, 1] = -0.0
        rho0 = DensityMatrix._of_block(rho0.layout, rho0.support, block)
        extended = protocols._establishment_stack(2, 1, rho0, "bipartite")[0]["extended"]
        assert np.signbit(extended.block.imag).tolist() == [[False, True], [False, False]]

    def test_the_move_runs_no_check(self, monkeypatch):
        rho0 = ResourceState.from_schmidt([0.2, 0.3, 0.5]).rho
        checked, seen = [], []

        class Cloned(Exception):
            pass

        def clone(rho, *args):
            seen.append(rho)
            raise Cloned

        monkeypatch.setattr(DensityMatrix, "__post_init__", lambda self: checked.append(self))
        monkeypatch.setattr(protocols, "clone_fan_out", clone)
        with pytest.raises(Cloned):
            protocols._establishment_stack(3, 2, rho0, "ghz")
        assert checked == [] and seen[0].support.tolist() == [0, 28, 56]  # |jj> -> |j00j>


class TestDerivedMetrics:
    """A run's figures of merit are functions of its controller measurement
    and its branch records, to the bit: the mean is the left-to-right sum,
    on every Python (3.12's builtin ``sum()`` of floats is compensated)."""

    @staticmethod
    def _dirichlet_resource(d, seed):
        return ResourceState.from_schmidt(np.random.default_rng(seed).dirichlet(np.ones(d)))

    @staticmethod
    def _controller_pmf(t, d):
        measured = qswitch_lab.projective_measure(
            t.stages["transmitted"], qswitch_lab.fourier_basis(d), "C"
        )
        return [cb.probability for cb in measured]

    # a compensated sum differs from the left-to-right one in 5 of these 48
    # runs: (3, 1) and (3, 2) at seed 5, (5, 1) at seeds 1, 4 and 5
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("d,n", [(2, 1), (3, 1), (5, 1), (2, 3), (3, 2), (4, 2)])
    def test_establishment_metrics_from_records(self, d, n, seed):
        t = run_ghz_distribution(d, n, self._dirichlet_resource(d, seed))
        live = [b for b in t.branches if b.state is not None]
        mean = 0.0
        for b in live:
            mean += b.probability * b.metrics["fidelity"]
        assert t.metrics["fidelity_mean"] == mean
        assert t.metrics["fidelity_min"] == min(b.metrics["fidelity"] for b in live)
        assert t.metrics["charlie_pmf"] == self._controller_pmf(t, d)
        assert t.metrics["maximally_entangled_all_branches"] == all(
            b.metrics.get("maximally_entangled", False) for b in live
        )

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_private_dit_controller_pmf_from_measurement(self, d, seed):
        t = run_private_dit(d, d - 1, self._dirichlet_resource(d, seed))
        assert t.metrics["charlie_pmf"] == self._controller_pmf(t, d)


class TestRecord:
    """The transcript is the one record of a run: it carries the controller's
    measurement of its ``transmitted`` stage, which the JSON and the repr
    leave out."""

    RUNS = {
        "private-dit": lambda d, res: run_private_dit(d, d - 1, res),
        "bipartite": run_bipartite_establishment,
        "ghz": lambda d, res: run_ghz_distribution(d, 3, res),
    }

    # at the maximal resource a private-dit run drops the controller
    # branch's state from its null receiver branches; the record keeps it
    @pytest.mark.parametrize("skewed", [False, True])
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("protocol", sorted(RUNS))
    def test_measured_is_the_controller_measurement(self, protocol, d, skewed):
        res = (ResourceState.from_schmidt(np.random.default_rng(d).dirichlet(np.ones(d)))
               if skewed else ResourceState.maximally_entangled(d))
        t = self.RUNS[protocol](d, res)
        fresh = qswitch_lab.projective_measure(
            t.stages["transmitted"], qswitch_lab.fourier_basis(d), "C")
        assert len(t.measured) == len(fresh) == d
        for got, want in zip(t.measured, fresh):
            assert got.outcome == want.outcome
            assert np.float64(got.probability).tobytes() == np.float64(want.probability).tobytes()
            assert (got.state is None) == (want.state is None)
            if want.state is not None:
                assert got.state.layout == want.state.layout
                assert np.array_equal(got.state.support, want.state.support)
                assert got.state.block.tobytes() == want.state.block.tobytes()

    @pytest.mark.parametrize("protocol", sorted(RUNS))
    def test_measured_stays_out_of_json_and_repr(self, protocol):
        t = self.RUNS[protocol](2, ResourceState.maximally_entangled(2))
        assert t.measured
        assert set(transcript_to_dict(t)) == {
            "schema", "header", "metrics", "protocol", "params", "stages", "branches"}
        assert "measured" not in dumps_json(transcript_to_dict(t))
        assert "measured" not in repr(t) and "MeasurementBranch" not in repr(t)


# ---------------------------------------------------------------------------
# Fixed-configuration baseline
# ---------------------------------------------------------------------------


class TestFixedBaseline:
    # both CLI families are geometrically uniform, so the square-root
    # measurement reaches the optimum: 1 for the flags, 1/d for the phases
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_classical_flags_leak(self, d):
        rep = fixed_configuration_baseline(d, classical_flag_encodings(d))
        assert abs(rep["bob_success"] - 1.0) < 1e-10
        assert abs(rep["min_pairwise_charlie_trace_distance"] - 1.0) < 1e-10
        assert rep["leak_certified"]

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_dfs_phases_are_useless_in_fixed_order(self, d):
        rep = fixed_configuration_baseline(d, dfs_phase_encodings(d))
        assert abs(rep["bob_success"] - 1.0 / d) < 1e-10
        assert rep["min_pairwise_charlie_trace_distance"] < 1e-12

    def test_identical_encodings(self):
        enc = [dfs_phase_encodings(2)[0]] * 2
        rep = fixed_configuration_baseline(2, enc)
        assert abs(rep["bob_success"] - 0.5) < 1e-10
        assert rep["min_pairwise_charlie_trace_distance"] < 1e-12

    def test_success_bounded_by_distinguishability(self, rng):
        layout = SubsystemLayout((2, 2), ("T", "C"))
        for _ in range(50):
            enc = [random_density(4, rng, layout) for _ in range(2)]
            rep = fixed_configuration_baseline(2, enc)
            assert rep["bob_success"] == rep["bob_success_upper_bound"]

    @pytest.mark.parametrize("d", [3, 4, 5])
    def test_square_root_success_within_the_barnum_knill_bracket(self, d, rng):
        # commuting marginals: the optimum is classical, sum_k max_x p_x(k) / d,
        # and P_opt^2 <= P_sqrt <= P_opt (Barnum & Knill, J. Math. Phys. 43, 2097)
        for _ in range(20):
            p = rng.dirichlet(np.ones(d), size=d)  # row x: message x's distribution
            p_opt = p.max(axis=0).sum() / d
            success = protocols._discrimination_success([np.diag(px) for px in p])
            assert p_opt ** 2 - 1e-12 <= success <= p_opt + 1e-12

    def test_square_root_success_past_one_raises(self):
        # three orthogonal states of trace 2: a success of 2 (to rounding),
        # not clamped to 1
        with pytest.raises(ValueError, match=r"measurement success is .*, outside \[0, 1\]"):
            protocols._discrimination_success([2.0 * np.diag(e) for e in np.eye(3)])

    def test_wrong_count_rejected(self):
        with pytest.raises(ValueError, match="one encoded state"):
            fixed_configuration_baseline(2, dfs_phase_encodings(3))

    def test_no_encodings_rejected(self):
        # d = 0 matches the empty list's length; the first state is then missing
        with pytest.raises(ValueError, match="need at least one encoded state"):
            fixed_configuration_baseline(0, [])

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_classical_flags_are_the_dense_product_states(self, d):
        layout = SubsystemLayout((d, d), ("T", "C"))
        for x, rho in enumerate(classical_flag_encodings(d)):
            ket = np.kron(np.eye(d)[0], np.eye(d)[x])  # |0>|x>
            assert rho.layout == layout
            assert rho.support.tolist() == [x]
            assert np.array_equal(rho.entries, np.outer(ket, ket))
            assert rho.block.view(np.int64).tolist() == [[np.float64(1.0).view(np.int64), 0]]

    def test_classical_flags_build_no_cached_ket(self):
        # d^2-dimensional kets would stay in the process-wide basis_ket cache
        misses = linalg.basis_ket.cache_info().misses
        classical_flag_encodings(7)
        assert linalg.basis_ket.cache_info().misses == misses

    @pytest.mark.parametrize("encode", [dfs_phase_encodings, classical_flag_encodings])
    def test_encodings_guarded_before_building(self, encode):
        # d target-control states of dimension d^2: d = 65 gives 4225 > 4096
        refused_before_allocating(
            lambda: encode(65), "encodings needs total dimension 4225, above the configured limit"
        )


# ---------------------------------------------------------------------------
# Necessity sweeps
# ---------------------------------------------------------------------------


class TestNecessitySweep:
    def test_private_dit_grid_matches_oracle_everywhere(self):
        alphas = np.linspace(0, 1, 101)
        spectra = [(a, 1 - a) for a in alphas]
        table = necessity_sweep("private-dit", 2, spectra)
        for alpha, row in zip(alphas, table["rows"]):
            assert abs(row["metric"] - oracle_closed_form(alpha)) < 1e-9
            assert abs(row["metric"] - oracle_private_bit_success(alpha, 0)) < 1e-9
            assert abs(row["metric"] - oracle_private_bit_success(alpha, 1)) < 1e-9
        perfect = [i for i, r in enumerate(table["rows"]) if r["is_perfect"]]
        assert perfect == [50]  # alpha = 0.5 only
        assert table["summary"]["perfect_only_at_uniform"]
        assert table["summary"]["monotone_in_entanglement"]

    def test_private_dit_reports_optimal_bound_side_by_side(self):
        spectra = [(a, 1 - a) for a in np.linspace(0.1, 0.9, 9)]
        table = necessity_sweep("private-dit", 2, spectra)
        for row in table["rows"]:
            # the constructive decode achieves the binary Helstrom bound here
            assert abs(row["optimal_decode_success"] - row["metric"]) < 1e-9

    @pytest.mark.parametrize("spectra", [
        [(a, 1 - a) for a in np.linspace(0, 1, 101)],
        [(0.97, 0.03), (1 - 1e-7, 1e-7)],
    ], ids=["grid-101", "skewed"])
    def test_optimal_decode_equals_remeasuring_oracle(self, spectra):
        table = necessity_sweep("private-dit", 2, spectra)
        for spec, row in zip(spectra, table["rows"]):
            res = ResourceState.from_schmidt(spec)
            runs = [run_private_dit(2, x, res) for x in range(2)]
            assert row["optimal_decode_success"] == oracle_optimal_two_state_success(runs)

    @pytest.mark.parametrize("d, spectra", [
        (2, [(0.5, 0.5), (0.7, 0.3), (1.0, 0.0)]),
        (3, [(1 / 3, 1 / 3, 1 / 3), (0.5, 0.3, 0.2)]),
    ])
    def test_private_dit_row_measures_once_per_message(self, d, spectra, monkeypatch):
        leads, decoded = [], []  # the lead of each measured stack and the rows of each decode
        measure, helstrom = protocols.projective_measure, protocols.helstrom_error

        def counted(rho, *args):
            leads.append(rho.block.shape[:-2])
            return measure(rho, *args)

        def decode(rho0, rho1, p0):
            decoded.append(len(p0))
            return helstrom(rho0, rho1, p0)

        monkeypatch.setattr(protocols, "projective_measure", counted)
        monkeypatch.setattr(protocols, "helstrom_error", decode)
        necessity_sweep("private-dit", d, spectra)
        # one stack of every message over every row, whatever their supports,
        # measured once: the decode makes no second measurement, and a
        # private bit decodes each controller outcome of a stack in one call
        assert leads == [(d, len(spectra))]
        assert decoded == ([len(spectra)] * d if d == 2 else [])

    D3_SPECTRA = [(1 / 3, 1 / 3, 1 / 3), (0.5, 0.3, 0.2), (0.6, 0.4, 0.0), (1.0, 0.0, 0.0)]

    @pytest.mark.parametrize("protocol,d,n", [
        ("bipartite", 2, 1), ("ghz", 2, 2), ("ghz", 2, 3), ("ghz", 2, 4),
        ("bipartite", 3, 1), ("ghz", 3, 2),
    ])
    def test_establishment_row_runs_only_the_measured_core(self, protocol, d, n, monkeypatch):
        spectra = [(a, 1 - a) for a in np.linspace(0, 1, 11)] if d == 2 else self.D3_SPECTRA
        resources = [ResourceState.from_schmidt(spec) for spec in spectra]
        full = [run_bipartite_establishment(d, res) if protocol == "bipartite"
                else run_ghz_distribution(d, n, res) for res in resources]

        def unread(*args):
            raise AssertionError("a sweep row computed a transcript diagnostic")

        for name in ("ggm", "is_maximally_entangled", "concurrence_2qubit"):
            monkeypatch.setattr(protocols, name, unread)
        with pytest.raises(AssertionError, match="diagnostic"):  # the transcript computes them
            run_ghz_distribution(d, n, resources[0])
        table = necessity_sweep(protocol, d, spectra, n_receivers=n)
        assert [row["metric"] for row in table["rows"]] == [t.metrics["fidelity_mean"] for t in full]
        with pytest.raises(ValueError, match="at least one receiver"):
            necessity_sweep("ghz", d, spectra, n_receivers=0)

    def test_bipartite_product_resource_is_useless(self):
        table = necessity_sweep("bipartite", 2, [(0.0, 1.0), (1.0, 0.0)])
        for row in table["rows"]:
            assert row["metric"] < 0.51
        assert not table["summary"]["perfect_rows"]

    @pytest.mark.parametrize("protocol,kwargs", [
        ("private-dit", {}),
        ("bipartite", {}),
        ("ghz", {"n_receivers": 2}),
    ])
    def test_uniform_spectrum_is_perfect(self, protocol, kwargs):
        table = necessity_sweep(protocol, 2, [(0.5, 0.5)], **kwargs)
        assert table["rows"][0]["is_perfect"]

    def test_ghz_grid_perfect_only_at_midpoint(self):
        spectra = [(a, 1 - a) for a in np.linspace(0, 1, 11)]
        table = necessity_sweep("ghz", 2, spectra, n_receivers=2)
        perfect = [i for i, r in enumerate(table["rows"]) if r["is_perfect"]]
        assert perfect == [5]
        for i, row in enumerate(table["rows"]):
            if i != 5:
                assert row["metric"] < 1 - 1e-9

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            necessity_sweep("teleport", 2, [(0.5, 0.5)])

    @pytest.mark.parametrize("protocol,kwargs", [
        ("private-dit", {}), ("bipartite", {}), ("ghz", {"n_receivers": 2}),
    ])
    def test_empty_grid_rejected_before_any_run(self, protocol, kwargs, monkeypatch):
        # no rows would certify both verdicts vacuously, and the CSV writer
        # reads a first row
        def unrun(*args):
            raise AssertionError("an empty grid built a resource")

        monkeypatch.setattr(protocols, "_schmidt_states", unrun)
        with pytest.raises(ValueError, match="a sweep needs at least one spectrum"):
            necessity_sweep(protocol, 2, [], **kwargs)

    @pytest.mark.parametrize("eps", [1e-5, 1e-6])
    @pytest.mark.parametrize("protocol,kwargs", [
        ("private-dit", {}), ("bipartite", {}), ("ghz", {"n_receivers": 2}),
    ])
    def test_near_uniform_perfect_rows_read_uniform(self, eps, protocol, kwargs):
        # the metric's deficit is about 2 eps^2, well inside the perfection
        # slack, and so is the spectrum's closed-form deficit
        spectra = [(0.5 + eps, 0.5 - eps), (0.5, 0.5), (0.6, 0.4)]
        table = necessity_sweep(protocol, 2, spectra, **kwargs)
        assert table["summary"]["perfect_rows"] == [0, 1]
        assert table["summary"]["perfect_only_at_uniform"]


def assert_rows_on_own_supports(stack, states):
    """Each row of a stack, taken out on its own support, has the support and
    the bits of the state computed on its own."""
    assert len(stack.block) == len(states)
    for i, state in enumerate(states):
        row = stack._row(i)
        assert row.layout == state.layout
        assert np.array_equal(row.support, state.support)
        assert np.array_equal(row.block, state.block)


class TestStackedSweep:
    """A sweep runs its resources as one stack, whatever their supports; each
    row's stages, branches and metrics equal a run of its own, to the bit."""

    GRID = [(a, 1 - a) for a in np.linspace(0, 1, 101)]
    ENDS = [(0.0, 1.0), (1.0, 0.0)] + [(a, 1 - a) for a in np.linspace(0.1, 0.9, 5)]
    D3 = TestNecessitySweep.D3_SPECTRA
    D5 = [(0.5, 0.0, 0.3, 0.2, 0.0), (0.1, 0.0, 0.6, 0.3, 0.0), (0.0, 0.25, 0.25, 0.25, 0.25),
          (0.2,) * 5, (1.0, 0.0, 0.0, 0.0, 0.0), (0.3, 0.0, 0.0, 0.0, 0.7)]
    # product and partial spectra beside each other, held on one union of
    # supports: through a BLAS product the (0, 0, 1) row's probabilities
    # would round otherwise
    D3_MIXED = [(1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.0, 0.5, 0.5), (0.2, 0.0, 0.8),
                (0.5, 0.3, 0.2)]

    @pytest.mark.parametrize("protocol,d,n,spectra", [
        ("bipartite", 2, 1, GRID), ("ghz", 2, 2, GRID),
        ("ghz", 2, 3, ENDS), ("ghz", 2, 4, ENDS), ("ghz", 2, 5, ENDS),
        ("bipartite", 3, 1, D3), ("ghz", 3, 2, D3),
        ("bipartite", 3, 1, D3_MIXED), ("ghz", 3, 2, D3_MIXED),
    ], ids=["bipartite-grid", "ghz2-grid", "ghz3-ends", "ghz4-ends", "ghz5-ends",
            "bipartite-d3", "ghz2-d3", "bipartite-d3-mixed", "ghz2-d3-mixed"])
    def test_establishment_rows_equal_lone_runs(self, protocol, d, n, spectra):
        lone = [protocols._establishment_run(d, n, ResourceState.from_schmidt(spec), protocol)
                for spec in spectra]
        stages, measured, corrected, mean = protocols._establishment_stack(
            d, n, protocols._schmidt_states(spectra), protocol)
        for name, stack in stages.items():
            assert_rows_on_own_supports(stack, [t.stages[name] for t in lone])
        for k, (cb, (fixed, f)) in enumerate(zip(measured, corrected)):
            assert cb.outcome == k
            assert np.array_equal(cb.probability, [t.measured[k].probability for t in lone])
            assert [t.measured[k].state is None for t in lone] == [cb.state is None] * len(lone)
            if cb.state is not None:
                assert_rows_on_own_supports(cb.state, [t.measured[k].state for t in lone])
                assert_rows_on_own_supports(fixed, [t.branches[k].state for t in lone])
                assert np.array_equal(f, [t.branches[k].metrics["fidelity"] for t in lone])
        assert np.array_equal(mean, [t.metrics["fidelity_mean"] for t in lone])
        table = necessity_sweep(protocol, d, spectra, n_receivers=n)
        full = [run_ghz_distribution(d, n, ResourceState.from_schmidt(spec)) for spec in spectra]
        assert np.array_equal([r["metric"] for r in table["rows"]],
                              [t.metrics["fidelity_mean"] for t in full])

    @pytest.mark.parametrize("d,spectra", [(2, GRID), (3, D3), (3, D3_MIXED), (5, D5)],
                             ids=["grid", "d3", "d3-mixed", "d5"])
    def test_private_dit_rows_equal_lone_runs(self, d, spectra):
        stack = protocols._schmidt_states(spectra)
        for x in range(d):
            lone = [run_private_dit(d, x, ResourceState.from_schmidt(spec)) for spec in spectra]
            stages, measured, joint = protocols._private_dit_stack(
                d, protocols.phase_vector(x, d), stack)
            for name, rows in stages.items():
                assert_rows_on_own_supports(rows, [t.stages[name] for t in lone])
            for k, cb in enumerate(measured):
                assert cb.outcome == k
                assert np.array_equal(cb.probability, [t.measured[k].probability for t in lone])
                states = [t.measured[k].state for t in lone]
                assert [s is None for s in states] == [cb.state is None] * len(lone)
                if cb.state is not None:
                    assert_rows_on_own_supports(cb.state, states)
            assert np.array_equal(joint, [t.metrics["joint_pmf"] for t in lone])
        table = necessity_sweep("private-dit", d, spectra)
        worst = [min(run_private_dit(d, x, ResourceState.from_schmidt(spec)).metrics[
            "success_probability"] for x in range(d)) for spec in spectra]
        assert np.array_equal([r["metric"] for r in table["rows"]], worst)

    @pytest.mark.parametrize("d,spectra", [(2, GRID), (3, D3_MIXED), (5, D5)],
                             ids=["grid", "d3-mixed", "d5"])
    @pytest.mark.parametrize("per_stack", ["1", "2", "d"])
    def test_private_dit_message_stacks_equal_lone_runs(self, d, spectra, per_stack, monkeypatch):
        # the messages run 1, 2 or d to a stack of every row, as the entry
        # budget admits, and the table is the same whatever their grouping
        default = repr(necessity_sweep("private-dit", d, spectra))
        stacks, stack_core = [], protocols._private_dit_stack

        def recording(d, phases, rho0):
            stacks.append(rho0.block.shape[:-2])
            return stack_core(d, phases, rho0)

        messages = d if per_stack == "d" else int(per_stack)
        k = protocols._schmidt_states(spectra).support.size
        monkeypatch.setattr(protocols, "_ENSEMBLE_ENTRIES",
                            messages * len(spectra) * (d * min(d, k)) ** 2)
        monkeypatch.setattr(protocols, "_private_dit_stack", recording)
        table = necessity_sweep("private-dit", d, spectra)
        sizes = [(min(messages, d - m), len(spectra)) for m in range(0, d, messages)]
        assert sorted(stacks) == sorted(sizes) and stacks[-1] == sizes[0]  # message 0's last
        assert repr(table) == default
        for spec, row in zip(spectra, table["rows"]):
            lone = [run_private_dit(d, x, ResourceState.from_schmidt(spec)) for x in range(d)]
            assert row["metric"] == min(t.metrics["success_probability"] for t in lone)
            if d == 2:
                assert row["optimal_decode_success"] == oracle_optimal_two_state_success(lone)

    @pytest.mark.parametrize("protocol,n,measures", [
        ("private-dit", 1, 3), ("bipartite", 1, 1), ("ghz", 2, 1),
    ])
    def test_rows_on_different_supports_run_as_one_stack(self, protocol, n, measures, monkeypatch):
        # D3_MIXED holds five rows on five supports: the sweep measures one
        # stack of all five (with a private dit's three messages as its first
        # axis), not a stack per support
        leads, measure = [], protocols.projective_measure

        def counted(rho, *args):
            leads.append(rho.block.shape[:-2])
            return measure(rho, *args)

        monkeypatch.setattr(protocols, "projective_measure", counted)
        assert len({tuple(s > 0 for s in spec) for spec in self.D3_MIXED}) == 5
        necessity_sweep(protocol, 3, self.D3_MIXED, n_receivers=n)
        rows = (len(self.D3_MIXED),)
        assert leads == [(measures,) + rows if protocol == "private-dit" else rows]

    def test_a_stack_raises_the_first_failing_rows_ket_message(self):
        # (1 + 3t, -t, -t, -t) passes the spectrum check, but its amplitudes,
        # the roots of the entries clipped at 0, have norm about 1 + 1.5t
        def ket_message(spec):
            amps = np.zeros(16, dtype=complex)
            amps[::5] = np.sqrt(np.maximum(spec, 0.0))
            with pytest.raises(ValueError) as own:
                Ket(amps)
            return str(own.value)

        first, second = [(1 + 3 * t, -t, -t, -t) for t in (0.9e-12, 0.8e-12)]
        assert ket_message(first) != ket_message(second)
        for spectra, failing in (([(0.25,) * 4, first, second], first),
                                 ([second, (0.25,) * 4, first], second)):
            with pytest.raises(ValueError) as grouped:
                necessity_sweep("bipartite", 4, spectra)
            assert str(grouped.value) == ket_message(failing)

    def test_stacks_hold_at_most_the_row_cap(self, monkeypatch):
        # a sweep splits into stacks of at most `_STACK_ROWS` rows, which
        # together hold the grid, and the rows keep the bits of one stack
        cap = 8
        grid = [(a, 1 - a) for a in np.linspace(0.05, 0.95, 16 * cap + 3)]
        one_stack = necessity_sweep("ghz", 2, grid, n_receivers=3)
        measures, rows = protocols._stack_measures, []

        def counted(protocol, d, n_receivers, rho0):
            rows.append(rho0.block.shape[0])
            return measures(protocol, d, n_receivers, rho0)

        monkeypatch.setattr(protocols, "_STACK_ROWS", cap)
        monkeypatch.setattr(protocols, "_stack_measures", counted)
        assert repr(necessity_sweep("ghz", 2, grid, n_receivers=3)) == repr(one_stack)
        assert max(rows) <= cap and sum(rows) == len(grid)


# ---------------------------------------------------------------------------
# Equality of the array-holding types
# ---------------------------------------------------------------------------


def _array_holders() -> dict:
    """Two separately built, equal-valued instances of each array-holding type."""

    def build() -> dict:
        t = run_bipartite_establishment(2, ResourceState.maximally_entangled(2))
        rho = t.stages["resource"]
        ext = qswitch_lab.coincidence_extensions(2)
        channel = qswitch_lab.erasing_channel(2, 0)
        return {
            "Ket": Ket(np.kron(basis_ket(2, 0).amplitudes, basis_ket(2, 1).amplitudes)),
            "DensityMatrix": rho,
            "MeasurementBranch": qswitch_lab.projective_measure(
                rho, qswitch_lab.fourier_basis(2), "C")[0],
            "KrausChannel": channel,
            "ExtendedChannel": ext[0],
            "ChoiMatrix": qswitch_lab.choi(channel),
            "TDecomposition": qswitch_lab.t_decomposition(ext),
            "Branch": t.branches[0],
            "ProtocolTranscript": t,
        }

    first, second = build(), build()
    return {name: (first[name], second[name]) for name in first}


@pytest.mark.parametrize("name", sorted(_array_holders()))
def test_array_holding_types_compare_by_identity(name):
    a, b = _array_holders()[name]
    assert type(a).__name__ == name
    # a generated __eq__ would compare the arrays and raise; identity does not
    assert a == a and not a == b and a != b
    assert len({a, b, a}) == 2


def test_layout_keeps_value_equality():
    a = SubsystemLayout((2, 3), ("A", "C"))
    b = SubsystemLayout((2, 3), ("A", "C"))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
