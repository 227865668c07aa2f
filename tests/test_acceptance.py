"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -v`` (criterion names double as the report) or ``-s`` to
see the printed lines.  Tolerances are pinned here and nowhere else.
"""

import time

import numpy as np
import pytest
from click.testing import CliRunner

from qswitch_lab import (
    SubsystemLayout,
    channels_equal,
    choi,
    classical_flag_encodings,
    cyclic_switch,
    dfs_phase_encodings,
    erasing_channel,
    fixed_configuration_baseline,
    fourier_basis,
    k_multiline,
    necessity_sweep,
    privacy_report,
    projective_measure,
    run_bipartite_establishment,
    run_ghz_distribution,
    run_private_dit,
    ResourceState,
)
from qswitch_lab import cli
from qswitch_lab.cli import CHECKS, main as cli_main

from conftest import kraus_apply, random_density, random_unitary, remix


def report(criterion, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}"
    print(line)
    assert ok, line


def _rows_read_closed_form(monkeypatch, rows):
    """Negative control: swap K^(N) in the check table, as a Kraus list and
    as the closed action, for the erasing channel onto |0...0> and report
    whether every (row, d, n) then reads a distance above 1e-10, i.e. no row
    compares a side with itself."""
    monkeypatch.setattr(cli, "k_multiline", lambda d, n: erasing_channel(d ** (n + 1), 0))
    monkeypatch.setattr(
        cli, "apply_coincidence",
        lambda rho, labels: kraus_apply(erasing_channel(rho.dim, 0).kraus, rho, labels),
    )
    return all(CHECKS[name].distance(d, n) > 1e-10 for name, d, n in rows)


def test_criterion_01_coincidence_identity(monkeypatch):
    t0 = time.perf_counter()
    worst = 0.0
    for d in (2, 3, 4, 5):
        for name in ("order", "choice"):
            worst = max(worst, CHECKS[name].distance(d, 1))
    elapsed = time.perf_counter() - t0
    caught = _rows_read_closed_form(monkeypatch, [("order", 2, 1), ("choice", 2, 1)])
    report(
        "criterion 1 (order/choice/closed-form coincidence, d=2,3,4,5)",
        worst <= 1e-10 and elapsed < 5.0 and caught,
        f"max Choi distance {worst:.3e} (tol 1e-10), runtime {elapsed:.2f}s (< 5s), "
        f"swapped closed form detected {caught}",
    )


def test_criterion_02_brute_force_oracle_equivalence(monkeypatch):
    t0 = time.perf_counter()
    worst = 0.0
    for d in (2, 3, 4, 5):
        worst = max(worst, CHECKS["order"].distance(d, 1))  # d^d tuples
    for n in (1, 2):
        worst = max(worst, CHECKS["multiline-enumeration"].distance(2, n))
    elapsed = time.perf_counter() - t0
    rows = [("order", 2, 1), ("multiline-enumeration", 2, 1), ("multiline-enumeration", 2, 2)]
    caught = _rows_read_closed_form(monkeypatch, rows)
    report(
        "criterion 2 (closed forms vs tuple enumerations)",
        worst <= 1e-10 and elapsed < 30.0 and caught,
        f"max Choi distance {worst:.3e} (tol 1e-10), runtime {elapsed:.2f}s (< 30s), "
        f"swapped closed form detected {caught}",
    )


def test_criterion_03_noiseless_subspace_preservation(monkeypatch):
    worst = 0.0
    for d in (2, 3, 4, 5):
        worst = max(worst, CHECKS["noiseless"].distance(d, 1))
    for d in (2, 3):
        for n in (1, 2, 3):
            worst = max(worst, CHECKS["multiline-noiseless"].distance(d, n))
    caught = _rows_read_closed_form(
        monkeypatch, [("noiseless", 2, 1), ("multiline-noiseless", 2, 2)]
    )
    report(
        "criterion 3 (noiseless-subspace preservation incl. multiline)",
        worst <= 1e-10 and caught,
        f"max infidelity {worst:.3e} (tol 1e-10), swapped closed form detected {caught}",
    )


def test_criterion_04_private_dit_if_direction():
    worst_pmf, worst_success, worst_td, worst_uniform = 0.0, 0.0, 0.0, 0.0
    for d in (2, 3, 4, 5):
        res = ResourceState.maximally_entangled(d)
        transcripts = [run_private_dit(d, x, res) for x in range(d)]
        for x, t in enumerate(transcripts):
            worst_success = max(worst_success, abs(t.metrics["success_probability"] - 1.0))
            joint = np.asarray(t.metrics["joint_pmf"])
            for mb in range(d):
                for mc in range(d):
                    expected = 1.0 / d if (mb + mc) % d == x else 0.0
                    worst_pmf = max(worst_pmf, abs(joint[mb, mc] - expected))
            pmf = np.asarray(t.metrics["charlie_pmf"])
            worst_uniform = max(worst_uniform, np.abs(pmf - 1.0 / d).max())
        rep = privacy_report(transcripts)
        worst_td = max(worst_td, rep["max_pairwise_trace_distance"])
    ok = (
        worst_success <= 1e-10
        and worst_pmf <= 1e-10
        and worst_td <= 1e-12
        and worst_uniform <= 1e-10
    )
    report(
        "criterion 4 (private dit: success, delta pmf, privacy, d=2..5)",
        ok,
        f"success dev {worst_success:.1e} (1e-10), pmf dev {worst_pmf:.1e} (1e-10), "
        f"controller trace distance {worst_td:.1e} (1e-12), pmf uniformity {worst_uniform:.1e} (1e-10)",
    )


def test_criterion_05_bipartite_if_direction():
    worst = 0.0
    for d in (2, 3, 4):
        t = run_bipartite_establishment(d, ResourceState.maximally_entangled(d))
        for b in t.branches:
            worst = max(worst, 1.0 - b.metrics["fidelity"])
    report(
        "criterion 5 (bipartite establishment per-branch fidelity, d=2,3,4)",
        worst <= 1e-10,
        f"max branch infidelity {worst:.3e} (tol 1e-10)",
    )


def test_criterion_06_ghz_if_direction():
    worst_fid, worst_ggm = 0.0, 0.0
    cases = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]
    for d, n in cases:
        t = run_ghz_distribution(d, n, ResourceState.maximally_entangled(d))
        worst_fid = max(worst_fid, 1.0 - t.metrics["fidelity_min"])
        worst_ggm = max(worst_ggm, abs(t.metrics["pre_measurement_ggm"] - (d - 1) / d))
    report(
        "criterion 6 (GHZ distribution fidelity and pre-measurement GGM)",
        worst_fid <= 1e-10 and worst_ggm <= 1e-10,
        f"max infidelity {worst_fid:.1e} (1e-10), max GGM deviation {worst_ggm:.1e} (1e-10)",
    )


def _oracle_private_bit_success(alpha):
    # independent exhaustive branch enumeration, raw numpy
    worst = 1.0
    f = [np.array([1, 1]) / np.sqrt(2), np.array([1, -1]) / np.sqrt(2)]
    for x in range(2):
        psi = np.zeros(4, dtype=complex)
        psi[0] = np.sqrt(alpha)
        psi[3] = np.sqrt(1 - alpha) * (-1.0) ** x
        success = 0.0
        for mb in range(2):
            for mc in range(2):
                amp = np.kron(f[mb], f[mc]).conj() @ psi
                if (mb + mc) % 2 == x:
                    success += abs(amp) ** 2
        worst = min(worst, success)
    return worst


def test_criterion_07_necessity_sweeps():
    alphas = np.linspace(0, 1, 101)
    spectra = [(a, 1 - a) for a in alphas]
    tables = {
        "private-dit": necessity_sweep("private-dit", 2, spectra),
        "bipartite": necessity_sweep("bipartite", 2, spectra),
        "ghz": necessity_sweep("ghz", 2, spectra, n_receivers=2),
    }
    ok = True
    details = []
    for name, table in tables.items():
        perfect = table["summary"]["perfect_rows"]
        only_uniform = table["summary"]["perfect_only_at_uniform"] and perfect == [50]
        ok = ok and only_uniform
        details.append(f"{name} perfect rows {perfect}")
    worst_oracle = 0.0
    for alpha, row in zip(alphas, tables["private-dit"]["rows"]):
        closed = (1 + 2 * np.sqrt(alpha * (1 - alpha))) / 2
        worst_oracle = max(worst_oracle, abs(row["metric"] - closed))
        worst_oracle = max(worst_oracle, abs(row["metric"] - _oracle_private_bit_success(alpha)))
    ok = ok and worst_oracle <= 1e-9
    report(
        "criterion 7 (necessity: perfection only at uniform spectrum, oracle match)",
        ok,
        "; ".join(details) + f"; max oracle deviation {worst_oracle:.3e} (tol 1e-9)",
    )


def test_criterion_08_fixed_configuration_leakage():
    rng = np.random.default_rng(11)
    layout = SubsystemLayout((2, 2), ("T", "C"))
    violations = 0.0
    for _ in range(50):
        enc = [random_density(4, rng, layout) for _ in range(2)]
        rep = fixed_configuration_baseline(2, enc)
        bound = (1.0 + rep["min_pairwise_charlie_trace_distance"]) / 2.0
        violations = max(violations, rep["bob_success"] - bound)
    worst_dfs = 0.0
    for d in (2, 3, 4):
        rep = fixed_configuration_baseline(d, dfs_phase_encodings(d))
        worst_dfs = max(worst_dfs, abs(rep["bob_success"] - 1.0 / d))
    flag = fixed_configuration_baseline(2, classical_flag_encodings(2))
    leak_ok = flag["leak_certified"] and abs(
        flag["min_pairwise_charlie_trace_distance"] - 1.0
    ) <= 1e-10
    ok = violations <= 1e-9 and worst_dfs <= 1e-10 and leak_ok
    report(
        "criterion 8 (fixed-order leakage bound over 50 random families)",
        ok,
        f"max bound violation {violations:.3e} (tol 1e-9), phase-encoding success dev "
        f"{worst_dfs:.1e} (1e-10), flag leakage certified {flag['leak_certified']}",
    )


def test_criterion_09_property_suites():
    rng = np.random.default_rng(23)
    worst_tp, worst_choi, worst_remix, worst_fourier, worst_meas = 0.0, 0.0, 0.0, 0.0, 0.0
    for d in (2, 3, 4):
        layout = SubsystemLayout((d, d), ("A", "C"))
        k = k_multiline(d, 1)
        for _ in range(200):
            rho = random_density(d * d, rng, layout)
            out = kraus_apply(k.kraus, rho, ("A", "C"))
            worst_tp = max(worst_tp, abs(np.real(np.trace(out.entries)) - 1.0))
        for ch in (k, erasing_channel(d, 0)):
            worst_choi = max(worst_choi, -float(np.linalg.eigvalsh(choi(ch).entries)[0]))
        base = cyclic_switch([erasing_channel(d, j) for j in range(d)])
        for _ in range(10):
            mixed = cyclic_switch(
                [remix(erasing_channel(d, j), random_unitary(d, rng)) for j in range(d)]
            )
            worst_remix = max(worst_remix, channels_equal(base, mixed, 1e-12).distance)
        fmat = np.column_stack([kk.amplitudes for kk in fourier_basis(d)])
        worst_fourier = max(worst_fourier, np.abs(fmat.conj().T @ fmat - np.eye(d)).max())
        fb = fourier_basis(d)
        for _ in range(200):
            rho = random_density(d * d, rng, layout)
            branches = projective_measure(rho, fb, "C")
            total = sum(b.probability for b in branches)
            worst_meas = max(worst_meas, abs(total - 1.0))
            if any(b.probability < 0 for b in branches):
                worst_meas = 1.0
    ok = (
        worst_tp <= 1e-10
        and worst_choi <= 1e-10
        and worst_remix <= 1e-12
        and worst_fourier <= 1e-12
        and worst_meas <= 1e-10
    )
    report(
        "criterion 9 (property suites, >= 200 random cases per d=2,3,4)",
        ok,
        f"trace dev {worst_tp:.1e} (1e-10), Choi neg {worst_choi:.1e} (1e-10), remix drift "
        f"{worst_remix:.1e} (1e-12), Fourier Gram {worst_fourier:.1e} (1e-12), "
        f"measurement completeness {worst_meas:.1e} (1e-10)",
    )


def test_criterion_10_cli_determinism(tmp_path):
    runner = CliRunner()
    payloads = []
    for name in ("a", "b"):
        out = tmp_path / f"run_{name}.json"
        res = runner.invoke(
            cli_main, ["run", "ghz", "--d", "2", "--receivers", "2", "--out", str(out)]
        )
        assert res.exit_code == 0, res.output
        payloads.append(out.read_bytes())
    run_identical = payloads[0] == payloads[1]
    csvs = []
    for name in ("a", "b"):
        out = tmp_path / f"sweep_{name}.csv"
        res = runner.invoke(
            cli_main,
            ["sweep", "private-dit", "--d", "2", "--alpha", "0:1:31", "--out", str(out)],
        )
        assert res.exit_code == 0, res.output
        csvs.append(out.read_bytes())
    sweep_identical = csvs[0] == csvs[1]
    report(
        "criterion 10 (CLI determinism: byte-identical payloads)",
        run_identical and sweep_identical,
        f"run payload identical {run_identical}, sweep payload identical {sweep_identical}",
    )
