"""The three workloads: the operations of one pass and the check on each result.

Why these workloads (sizes measured on a 2-core x86-64 machine, one BLAS
thread, at the commit that added the benchmark):

``dense-protocols``
    Library calls only.  GHZ distribution at the largest (d, N) the default
    guards allow and a d=10 private dit for every message plus its privacy
    report.  Dense Kraus application (``channels.apply``) and the
    ``DensityMatrix`` eigenvalue check dominate; nothing is written.
``transcript-out``
    The CLI, in-process, writing full JSON transcripts (11-13 MB each) at
    mid sizes.  Serialization dominates, so this shows serializer changes
    and how much a compute speed-up is diluted once output is written.
``sweep-small``
    The CLI, in-process: three 101-point d=2 necessity sweeps with CSV out
    and three ``verify`` runs.  Thousands of tiny states, so fixed per-call
    cost (validation, rebuilt channels, measurement set-up) dominates.  A
    dense-path optimisation should leave it flat.

The seed only picks message values and the order of operations inside a
pass; the work per pass does not depend on it.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import common
from qswitch_lab import protocols
from qswitch_lab.protocols import ResourceState

FIDELITY_TOL = 1e-10
PRIVACY_TOL = 1e-12

# The largest GHZ sizes the default guards admit: d=2 stops at N=4 because
# the pre-measurement GGM is capped at 6 parties (policy.max_ggm_parties),
# and d=3, N=4 is left out because one run alone takes about 17 s.
GHZ_LADDER = ((2, 4), (3, 3), (4, 2), (5, 2))
DENSE_PRIVATE_DIT_D = 10

TRANSCRIPT_GHZ = ((3, 3), (4, 2))
TRANSCRIPT_PRIVATE_DIT_D = 8

SWEEP_GRID = "0:1:101"
SWEEPS = (("private-dit",), ("bipartite",), ("ghz", "--receivers", "2"))
VERIFIES = (("--d", "2", "--n", "2"), ("--d", "3"), ("--d", "4"))


@dataclass(frozen=True)
class Op:
    """One timed operation.

    ``check`` returns the problems found in the call's result (empty when
    correct); a check that raises also fails the operation.  Every path in
    ``outputs`` must hash the same on every pass; ``check_file`` validates a
    written file once per run.
    """

    name: str
    call: Callable[[], object]
    check: Callable[[object], list[str]]
    outputs: tuple[Path, ...] = ()
    check_file: Callable[[bytes], list[str]] | None = None


def _near_one(label: str, value) -> list[str]:
    if abs(float(value) - 1.0) > FIDELITY_TOL:
        return [f"{label} = {value!r}, not within {FIDELITY_TOL} of 1"]
    return []


def _check_ghz_metrics(metrics: dict) -> list[str]:
    problems = _near_one("fidelity_mean", metrics["fidelity_mean"])
    problems += _near_one("fidelity_min", metrics["fidelity_min"])
    if metrics["maximally_entangled_all_branches"] is not True:
        problems.append("maximally_entangled_all_branches is not true")
    return problems


def _check_privacy(max_trace_distance, label: str) -> list[str]:
    if not float(max_trace_distance) <= PRIVACY_TOL:
        return [f"{label} = {max_trace_distance!r} > {PRIVACY_TOL}"]
    return []


# ---------------------------------------------------------------------------
# dense-protocols
# ---------------------------------------------------------------------------


def dense_protocols(rng: random.Random, outdir: Path) -> Callable[[], list[Op]]:
    messages = list(range(DENSE_PRIVATE_DIT_D))
    rng.shuffle(messages)

    def make_pass() -> list[Op]:
        ops = [
            Op(
                f"ghz d={d} N={n}",
                partial(protocols.run_ghz_distribution, d, n, ResourceState.maximally_entangled(d)),
                lambda t: _check_ghz_metrics(t.metrics),
            )
            for d, n in GHZ_LADDER
        ]
        d = DENSE_PRIVATE_DIT_D
        resource = ResourceState.maximally_entangled(d)
        sent = []

        def send(x: int):
            t = protocols.run_private_dit(d, x, resource)
            sent.append(t)
            return t

        ops += [
            Op(
                f"private-dit d={d} x={x}",
                partial(send, x),
                lambda t: _near_one("success_probability", t.metrics["success_probability"]),
            )
            for x in messages
        ]

        def check_report(report: dict) -> list[str]:
            problems = _check_privacy(
                report["max_pairwise_trace_distance"], "max_pairwise_trace_distance"
            )
            if len(report["charlie_pmfs"]) != d:
                covered = len(report["charlie_pmfs"])
                problems.append(f"privacy report covers {covered} of {d} messages")
            return problems

        ops.append(
            Op(f"privacy_report d={d}", lambda: protocols.privacy_report(sent), check_report)
        )
        return ops

    return make_pass


# ---------------------------------------------------------------------------
# CLI workloads
# ---------------------------------------------------------------------------


def _summary(stdout: str) -> dict[str, str]:
    """The ``key: value`` lines the CLI prints."""
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def _cli_op(name: str, args, check: Callable[[dict, str], list[str]],
            outputs=(), check_file=None) -> Op:
    def check_result(result) -> list[str]:
        code, stdout = result
        if code != 0:
            return [f"exit code {code}: {stdout[-500:]!r}"]
        problems = check(_summary(stdout), stdout)
        for path in outputs:
            if f"wrote {path}" not in stdout:
                problems.append(f"no 'wrote {path}' line")
        return problems

    # Looked up at call time, so the traced pass sees the tracer's wrapper.
    return Op(name, lambda: common.invoke_cli(args), check_result, tuple(outputs), check_file)


def _check_ghz_stdout(summary: dict, stdout: str) -> list[str]:
    return _check_ghz_metrics({
        "fidelity_mean": float(summary["fidelity_mean"]),
        "fidelity_min": float(summary["fidelity_min"]),
        "maximally_entangled_all_branches":
            summary["maximally_entangled_all_branches"] == "true",
    })


def _check_private_dit_stdout(summary: dict, stdout: str) -> list[str]:
    return (_near_one("success_probability", float(summary["success_probability"]))
            + _check_privacy(float(summary["privacy_max_trace_distance"]),
                             "privacy_max_trace_distance"))


def _check_transcript_file(protocol: str, data: bytes) -> list[str]:
    payload = json.loads(data)
    problems = []
    if payload.get("schema") != "qswitch-lab/1" or payload.get("protocol") != protocol:
        problems.append(f"transcript header {payload.get('schema')!r}/{payload.get('protocol')!r}")
    if not payload.get("stages"):
        problems.append("transcript has no stages")
    return problems


def transcript_out(rng: random.Random, outdir: Path) -> Callable[[], list[Op]]:
    x = rng.randrange(TRANSCRIPT_PRIVATE_DIT_D)
    ops = []
    for d, n in TRANSCRIPT_GHZ:
        path = outdir / f"ghz-d{d}-n{n}.json"
        ops.append(_cli_op(
            f"run ghz --d {d} --receivers {n}",
            ("run", "ghz", "--d", str(d), "--receivers", str(n), "--out", str(path)),
            _check_ghz_stdout, (path,), partial(_check_transcript_file, "ghz"),
        ))
    d = TRANSCRIPT_PRIVATE_DIT_D
    path = outdir / f"private-dit-d{d}.json"
    ops.append(_cli_op(
        f"run private-dit --d {d} --x {x}",
        ("run", "private-dit", "--d", str(d), "--x", str(x), "--out", str(path)),
        _check_private_dit_stdout, (path,), partial(_check_transcript_file, "private-dit"),
    ))
    return lambda: ops


_VERIFY_TALLY = re.compile(r"^(\d+)/(\d+) checks passed$")


def _check_sweep_stdout(summary: dict, stdout: str) -> list[str]:
    if "only at uniform spectrum: True" not in stdout:
        return ["sweep does not report 'only at uniform spectrum: True'"]
    return []


def _check_sweep_file(data: bytes) -> list[str]:
    rows = data.decode("utf-8").splitlines()
    points = int(SWEEP_GRID.rsplit(":", 1)[1])
    if len(rows) != points + 1:
        return [f"sweep CSV has {len(rows)} lines, expected {points + 1}"]
    return []


def _check_verify_stdout(summary: dict, stdout: str) -> list[str]:
    lines = stdout.splitlines()
    tally = _VERIFY_TALLY.match(lines[-1]) if lines else None
    if tally is None or tally.group(1) != tally.group(2) or tally.group(1) == "0":
        return [f"verify did not pass every check: {lines[-1] if lines else ''!r}"]
    return []


def sweep_small(rng: random.Random, outdir: Path) -> Callable[[], list[Op]]:
    ops = []
    for spec in SWEEPS:
        path = outdir / f"sweep-{spec[0]}.csv"
        ops.append(_cli_op(
            f"sweep {' '.join(spec)}",
            ("sweep", *spec, "--d", "2", "--alpha", SWEEP_GRID, "--out", str(path)),
            _check_sweep_stdout, (path,), _check_sweep_file,
        ))
    for spec in VERIFIES:
        ops.append(_cli_op(f"verify {' '.join(spec)}", ("verify", *spec), _check_verify_stdout))
    rng.shuffle(ops)
    return lambda: ops


WORKLOADS = {
    "dense-protocols": dense_protocols,
    "transcript-out": transcript_out,
    "sweep-small": sweep_small,
}
