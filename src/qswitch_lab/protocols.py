"""Protocol pipelines over the coincidence channel, exactly branch-enumerated.

Three constructive protocols are implemented:

* private dit transmission: the sender encodes a classical value as a phase
  on her half of a shared two-qudit state, sends it through the coincidence
  channel, and the receiver decodes from his own Fourier outcome plus the
  controller's announced Fourier outcome.  The controller's marginal is
  independent of the message.
* bipartite entanglement establishment: the sender clones her half onto an
  ancilla, sends the clone, and the receiver's phase correction turns every
  controller outcome into the canonical maximally entangled pair.
* GHZ distribution to N receivers: same idea with N clones through N
  parallel lines; one receiver corrects.

The sender's phase encoding and the receiver's correction are one gate,
``phase_unitary``.  The channel is applied through
``channels.apply_coincidence``, its closed action; no Kraus list is built
here (``combinators.k_multiline`` is the oracle it is tested against).
Likewise the clone fan-out is applied as the basis permutation
``clone_permutation`` through ``linalg.permute_basis``, with the dense
``clone_extend_unitary`` as its oracle.  All runs are pure functions
returning a :class:`ProtocolTranscript` with the state after every stage and
every measurement branch.  The pre-measurement GGM of a GHZ run is skipped,
with the reason recorded in the metrics, past ``policy.max_ggm_parties``.  A
fixed-configuration baseline and necessity sweeps over non-uniform Schmidt
spectra probe why coherent control and maximal resource entanglement are
needed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .channels import apply_coincidence
from .linalg import (
    DensityMatrix,
    Ket,
    SubsystemLayout,
    _readonly,
    apply_unitary,
    basis_ket,
    fidelity_with_ket,
    fourier_basis,
    ghz_ket,
    partial_trace,
    permute_basis,
    projective_measure,
    tensor,
    trace_distance,
)
from .metrics import (
    concurrence_2qubit, ggm, helstrom_error, is_maximally_entangled, mutual_information,
    total_variation,
)
from .numeric import guard_dimension, policy


# ---------------------------------------------------------------------------
# Local unitaries
# ---------------------------------------------------------------------------


@functools.cache  # depends only on its integers and is immutable: built once
def phase_unitary(k: int, d: int) -> np.ndarray:
    """Diagonal phase gate diag(exp(2*pi*i*j*k/d)); for d = 2 it is Z^k.

    The sender encodes message k with it on her half of the canonical
    maximally entangled pair, which gives the k-th member of the phased
    family.  The receiver applies it for the controller's Fourier outcome k:
    with the +-sign Fourier convention that outcome leaves phases
    exp(-2*pi*i*j*k/d) on the |j...j> components, which the gate undoes.
    The array is read-only.
    """
    if not 0 <= k < d:
        raise ValueError(f"phase index {k} out of range for dimension {d}")
    j = np.arange(d)
    return _readonly(np.diag(np.exp(2j * np.pi * j * k / d)))


def clone_extend_unitary(d: int, n_copies: int) -> np.ndarray:
    """Basis-copy unitary on 1 + n_copies qudits: |k>|0..0> -> |k>^(n+1).

    Completed to a full unitary by cyclic addition on each ancilla register
    (|k, a_1, ..., a_n> -> |k, a_1 + k, ..., a_n + k> mod d), the qudit
    generalization of a CNOT fan-out.
    """
    if d < 2 or n_copies < 1:
        raise ValueError("need d >= 2 and at least one copy")
    dim = d ** (n_copies + 1)
    guard_dimension(dim, "cloning unitary")
    u = np.zeros((dim, dim), dtype=complex)
    for idx in range(dim):
        digits = []
        rem = idx
        for _ in range(n_copies + 1):
            digits.append(rem % d)
            rem //= d
        digits.reverse()  # digits[0] is the source register
        k = digits[0]
        out_digits = [k] + [(a + k) % d for a in digits[1:]]
        out = 0
        for dg in out_digits:
            out = out * d + dg
        u[out, idx] = 1.0
    return u


@functools.cache
def clone_permutation(d: int, n_copies: int) -> np.ndarray:
    """Index map of the fan-out |k, a_1, ..., a_n> -> |k, a_1 + k, ..., a_n + k>.

    ``perm[i]`` is the basis index that ``clone_extend_unitary(d, n_copies)``
    sends basis index ``i`` to; the protocols apply it with
    ``linalg.permute_basis`` and the dense unitary is its test oracle.  The
    array is read-only.
    """
    if d < 2 or n_copies < 1:
        raise ValueError("need d >= 2 and at least one copy")
    shape = (d,) * (n_copies + 1)
    digits = np.indices(shape).reshape(n_copies + 1, -1)  # digits[0]: source register
    k = digits[0]
    perm = np.ravel_multi_index((k, *((digits[1:] + k) % d)), shape)
    perm.setflags(write=False)
    return perm


# ---------------------------------------------------------------------------
# Resources and transcripts
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class ResourceState:
    """Initial sender-controller state on labels ("A", "C"), and its name.

    The name is what a transcript records: ``"max"``, ``"schmidt:"`` and the
    spectrum, or ``"explicit"``.
    """

    name: str
    rho: DensityMatrix

    @classmethod
    def maximally_entangled(cls, d: int) -> "ResourceState":
        return cls("max", ghz_ket(d, 2).density(SubsystemLayout((d, d), ("A", "C"))))

    @classmethod
    def from_schmidt(cls, spectrum) -> "ResourceState":
        spec = tuple(float(s) for s in spectrum)
        if not all(s >= -policy.structural_tol for s in spec):  # rejects NaN too
            raise ValueError("Schmidt spectrum entries must be nonnegative")
        if not abs(sum(spec) - 1.0) <= policy.structural_tol:
            raise ValueError(f"Schmidt spectrum sums to {sum(spec)!r}, not 1")
        d = len(spec)
        amps = np.zeros(d * d, dtype=complex)
        for j, lam in enumerate(spec):
            amps[j * d + j] = math.sqrt(max(lam, 0.0))
        rho = Ket(amps).density(SubsystemLayout((d, d), ("A", "C")))
        return cls("schmidt:" + ",".join(f"{s:.12g}" for s in spec), rho)

    @classmethod
    def explicit(cls, state: DensityMatrix) -> "ResourceState":
        if state.layout.n_subsystems != 2 or state.layout.dims[0] != state.layout.dims[1]:
            raise ValueError("explicit resource must be a two-qudit state of equal dimensions")
        return cls("explicit", state.relabel(dict(zip(state.layout.labels, ("A", "C")))))

    @property
    def d(self) -> int:
        return self.rho.layout.dims[0]

    def state(self, d: int) -> DensityMatrix:
        if d != self.d:
            raise ValueError(f"resource has dimension {self.d}, protocol asked for {d}")
        return self.rho


@dataclass(frozen=True)
class StageRecord:
    name: str
    state: DensityMatrix


@dataclass(frozen=True)
class Branch:
    controller_outcome: int
    probability: float
    receiver_outcomes: tuple[int, ...] | None
    decoded: int | None
    state: DensityMatrix | None
    metrics: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ProtocolTranscript:
    protocol_id: str
    params: dict
    stages: list[StageRecord]
    branches: list[Branch]
    metrics: dict

    def stage(self, name: str) -> DensityMatrix:
        for rec in self.stages:
            if rec.name == name:
                return rec.state
        raise KeyError(f"no stage named {name!r}; have {[r.name for r in self.stages]}")


# ---------------------------------------------------------------------------
# Private dit transmission
# ---------------------------------------------------------------------------


def run_private_dit(d: int, x: int, resource: ResourceState) -> ProtocolTranscript:
    """Send the classical value x through the coincidence channel.

    Pipeline: phase-encode x on the sender's half, transmit through the
    coincidence channel (sender side relabeled to the receiver), then
    enumerate the controller's and receiver's Fourier measurements.  The
    decode rule is x_hat = (m_receiver + m_controller) mod d, matching the
    +-sign Fourier convention.
    """
    if not 0 <= x < d:
        raise ValueError(f"message {x} out of range for dimension {d}")
    rho0 = resource.state(d)
    stages = [StageRecord("resource", rho0)]

    rho1 = apply_unitary(rho0, phase_unitary(x, d), ("A",))
    stages.append(StageRecord("encoded", rho1))

    rho2 = apply_coincidence(rho1, ("A", "C")).relabel({"A": "B"})
    stages.append(StageRecord("transmitted", rho2))

    fb = fourier_basis(d)
    joint = np.zeros((d, d))
    branches: list[Branch] = []
    charlie_pmf = np.zeros(d)
    for cb in projective_measure(rho2, fb, "C"):
        charlie_pmf[cb.outcome] = cb.probability
        if cb.state is None:
            branches.append(Branch(cb.outcome, 0.0, None, None, None))
            continue
        # receiver's state is a single-qudit system; enumerate his outcomes
        # directly from the basis amplitudes
        for mb, amp_ket in enumerate(fb):
            v = amp_ket.amplitudes
            p = float(np.real(v.conj() @ cb.state.entries @ v)) * cb.probability
            p = max(p, 0.0)
            joint[mb, cb.outcome] = p
            decoded = (mb + cb.outcome) % d
            branches.append(
                Branch(cb.outcome, p, (mb,), decoded, None if p < policy.null_branch_tol else cb.state)
            )

    success = float(
        sum(joint[mb, mc] for mb in range(d) for mc in range(d) if (mb + mc) % d == x)
    )
    metrics = {
        "success_probability": success,
        "charlie_pmf": charlie_pmf.tolist(),
        "joint_pmf": joint.tolist(),
        "branch_probability_total": float(joint.sum()),
    }
    return ProtocolTranscript(
        "private-dit",
        {"d": d, "x": x, "resource": resource.name},
        stages,
        branches,
        metrics,
    )


def privacy_report(transcripts: list[ProtocolTranscript]) -> dict:
    """Cross-message leakage metrics from one transcript per message value.

    Reports the worst pairwise trace distance between the controller's
    reduced states, the worst total-variation distance between his outcome
    distributions, and the equal-prior Helstrom error for every pair.
    """
    _shared_dimension(transcripts)
    charlie_states = [partial_trace(t.stage("transmitted"), ("C",)) for t in transcripts]
    pmfs = [np.asarray(t.metrics["charlie_pmf"]) for t in transcripts]
    n = len(transcripts)
    max_td, max_tv = 0.0, 0.0
    helstrom = {}
    for i in range(n):
        for j in range(i + 1, n):
            td = trace_distance(charlie_states[i], charlie_states[j])
            tv = total_variation(pmfs[i], pmfs[j])
            max_td = max(max_td, td)
            max_tv = max(max_tv, tv)
            helstrom[(i, j)] = 0.5 * (1.0 - td)  # the equal-prior Helstrom error
    return {
        "max_pairwise_trace_distance": max_td,
        "max_pairwise_outcome_tv": max_tv,
        "helstrom_errors": helstrom,
        "charlie_pmfs": [p.tolist() for p in pmfs],
    }


def _shared_dimension(transcripts: list[ProtocolTranscript]) -> int:
    """The dimension d of a nonempty list of transcripts of one d and resource."""
    if not transcripts:
        raise ValueError("need at least one transcript")
    d = transcripts[0].params["d"]
    res = transcripts[0].params["resource"]
    for t in transcripts:
        if t.params["d"] != d or t.params["resource"] != res:
            raise ValueError("transcripts must share dimension and resource")
    return d


def decode_summary(transcripts: list[ProtocolTranscript]) -> dict:
    """Decode table over a uniform message ensemble: p(x, x_hat) and its MI.

    The transcripts share d and the resource and carry each message 0..d-1 once.
    """
    d = _shared_dimension(transcripts)
    messages = sorted(t.params["x"] for t in transcripts)
    if messages != list(range(d)):
        raise ValueError(f"need one transcript per message value 0..{d - 1}, got {messages}")
    table = np.zeros((d, d))
    for t in transcripts:
        x = t.params["x"]
        joint = np.asarray(t.metrics["joint_pmf"])
        for mb in range(d):
            for mc in range(d):
                table[x, (mb + mc) % d] += joint[mb, mc] / d
    return {
        "joint_pmf": table.tolist(),
        "mutual_information_bits": mutual_information(table),
        "min_success": float(min(table[x, x] * d for x in range(d))),
    }


# ---------------------------------------------------------------------------
# Entanglement establishment
# ---------------------------------------------------------------------------


def _establishment_run(
    d: int, n_receivers: int, resource: ResourceState, protocol_id: str
) -> ProtocolTranscript:
    guard_dimension(d ** (n_receivers + 2), protocol_id)
    send_labels = tuple(f"A{i}" for i in range(1, n_receivers + 1))
    recv_labels = tuple(f"B{i}" for i in range(1, n_receivers + 1))

    rho0 = resource.state(d)
    stages = [StageRecord("resource", rho0)]

    ancilla = basis_ket(d, 0).density(SubsystemLayout((d,), (send_labels[0],)))
    extended = tensor(rho0, ancilla)
    for lbl in send_labels[1:]:
        extended = tensor(extended, basis_ket(d, 0).density(SubsystemLayout((d,), (lbl,))))
    extended = extended.reorder(("A",) + send_labels + ("C",))
    stages.append(StageRecord("extended", extended))

    cloned = permute_basis(extended, clone_permutation(d, n_receivers), ("A",) + send_labels)
    stages.append(StageRecord("cloned", cloned))

    sent = apply_coincidence(cloned, send_labels + ("C",))
    sent = sent.relabel(dict(zip(send_labels, recv_labels)))
    stages.append(StageRecord("transmitted", sent))

    # the pre-measurement GGM is an optional diagnostic: past the bipartition
    # cap it is skipped with a recorded reason instead of aborting the run
    pre_ggm = ggm_skipped = None
    if sent.is_pure():
        parties = sent.layout.n_subsystems
        if parties > policy.max_ggm_parties:
            ggm_skipped = (
                f"{parties} parties exceed the bipartition cap of {policy.max_ggm_parties}"
            )
        else:
            pre_ggm = ggm(sent.to_ket(), sent.layout)

    target = ghz_ket(d, n_receivers + 1)
    fb = fourier_basis(d)
    branches: list[Branch] = []
    charlie_pmf = np.zeros(d)
    fidelities = []
    weighted_sum = 0.0
    all_max_ent = True
    # only the qubit pair reads the branch average, for its concurrence
    avg_state = np.zeros((4, 4), dtype=complex) if (d, n_receivers) == (2, 1) else None
    for cb in projective_measure(sent, fb, "C"):
        charlie_pmf[cb.outcome] = cb.probability
        if cb.state is None:
            branches.append(Branch(cb.outcome, 0.0, None, None, None))
            continue
        corrected = apply_unitary(cb.state, phase_unitary(cb.outcome, d), (recv_labels[0],))
        fid = fidelity_with_ket(corrected, target)
        fidelities.append(fid)
        weighted_sum += cb.probability * fid
        if avg_state is not None:
            avg_state += cb.probability * corrected.entries
        branch_metrics = {"fidelity": fid}
        if corrected.is_pure():
            branch_metrics["maximally_entangled"] = is_max_ent = is_maximally_entangled(
                corrected.to_ket(), corrected.layout, (corrected.layout.labels[0],)
            )
            all_max_ent = all_max_ent and is_max_ent
        else:
            all_max_ent = False
        branches.append(
            Branch(cb.outcome, cb.probability, (), None, corrected, branch_metrics)
        )

    metrics = {
        "fidelity_mean": float(weighted_sum),
        "fidelity_min": float(min(fidelities)) if fidelities else 0.0,
        "charlie_pmf": charlie_pmf.tolist(),
        "maximally_entangled_all_branches": bool(all_max_ent),
    }
    if pre_ggm is not None:
        metrics["pre_measurement_ggm"] = float(pre_ggm)
    if ggm_skipped is not None:
        metrics["pre_measurement_ggm_skipped"] = ggm_skipped
    if avg_state is not None:
        out_layout = SubsystemLayout((d, d), ("A", recv_labels[0]))
        metrics["average_output_concurrence"] = concurrence_2qubit(
            DensityMatrix(avg_state, out_layout)
        )
    return ProtocolTranscript(
        protocol_id,
        {"d": d, "receivers": n_receivers, "resource": resource.name},
        stages,
        branches,
        metrics,
    )


def run_bipartite_establishment(d: int, resource: ResourceState) -> ProtocolTranscript:
    """Establish a maximally entangled pair with one receiver.

    Pipeline: clone the sender's half onto a |0> ancilla, transmit the clone
    through the coincidence channel, enumerate the controller's Fourier
    outcomes, and apply the receiver's phase correction per branch.
    """
    return _establishment_run(d, 1, resource, "bipartite")


def run_ghz_distribution(d: int, n_receivers: int, resource: ResourceState) -> ProtocolTranscript:
    """Distribute a GHZ state to N receivers over N parallel lines.

    Same pipeline as the bipartite protocol with N clones and the N-line
    coincidence channel; only the first receiver needs to apply the
    correction.  N = 1 reproduces the bipartite transcript metrics.
    """
    if n_receivers < 1:
        raise ValueError("need at least one receiver")
    return _establishment_run(d, n_receivers, resource, "ghz")


# ---------------------------------------------------------------------------
# Fixed-configuration baseline
# ---------------------------------------------------------------------------


def fixed_configuration_baseline(d: int, encoded_states: list[DensityMatrix]) -> dict:
    """Leakage analysis when the channels run in a fixed order.

    ``encoded_states[x]`` is the joint target-control state prepared for
    message x, just before the first erasing channel.  That channel resets
    the target, so everything downstream is a function of the controller's
    marginal alone; the receiver's realized success therefore equals the
    best discrimination of those marginals (Helstrom measurement for d = 2,
    square-root measurement beyond), and perfect decoding forces the
    marginals to be pairwise perfectly distinguishable -- i.e. the
    controller can read the message too.
    """
    if len(encoded_states) != d:
        raise ValueError(f"need one encoded state per message, got {len(encoded_states)}")
    dims = encoded_states[0].layout.dims
    for st in encoded_states:
        if st.layout.n_subsystems != 2 or st.layout.dims != dims:
            raise ValueError("encoded states must share one target (x) control layout")
    control_label = encoded_states[0].layout.labels[1]
    marginals = [partial_trace(st, (control_label,)) for st in encoded_states]

    n = len(marginals)
    min_td = 1.0
    for i in range(n):
        for j in range(i + 1, n):
            min_td = min(min_td, trace_distance(marginals[i], marginals[j]))

    bound = (1.0 + min_td) / 2.0
    # two messages: the Helstrom measurement attains the bound
    success = bound if n == 2 else _discrimination_success([m.entries for m in marginals])

    if success >= 1.0 - policy.spectral_tol and min_td < 1.0 - policy.spectral_tol:
        raise RuntimeError(
            "inconsistent baseline: perfect decoding with imperfectly "
            "distinguishable controller marginals"
        )
    return {
        "bob_success": success,
        "min_pairwise_charlie_trace_distance": min_td,
        "bob_success_upper_bound": bound,
        "leak_certified": bool(success >= 1.0 - policy.spectral_tol),
    }


def _discrimination_success(states: list[np.ndarray]) -> float:
    """Equal-prior success of the square-root (pretty good) measurement on
    more than two states: always achievable, and perfect exactly when the
    states are orthogonal.
    """
    n = len(states)
    avg = sum(states) / n
    vals, vecs = np.linalg.eigh(avg)
    inv_sqrt = np.zeros_like(avg)
    for lam, col in zip(vals, vecs.T):
        if lam > 1e-13:
            inv_sqrt += np.outer(col, col.conj()) / math.sqrt(lam)
    success = 0.0
    for rho in states:
        m = inv_sqrt @ (rho / n) @ inv_sqrt
        success += float(np.real(np.trace(m @ rho))) / n
    return min(success, 1.0)


def dfs_phase_encodings(d: int) -> list[DensityMatrix]:
    """The phased maximally entangled family as target-control encodings."""
    layout = SubsystemLayout((d, d), ("T", "C"))
    return [ghz_ket(d, 2, x).density(layout) for x in range(d)]


def classical_flag_encodings(d: int) -> list[DensityMatrix]:
    """Encodings that copy the message into the control: |0>(x)|x>."""
    layout = SubsystemLayout((d, d), ("T", "C"))
    return [tensor(basis_ket(d, 0), basis_ket(d, x)).density(layout) for x in range(d)]


# ---------------------------------------------------------------------------
# Necessity sweeps
# ---------------------------------------------------------------------------


def necessity_sweep(
    protocol: str, d: int, spectra: list, n_receivers: int = 1
) -> dict:
    """Protocol quality across a grid of resource Schmidt spectra.

    One row per spectrum with the protocol metric (worst-case success for
    the private dit, branch-averaged target fidelity otherwise), the
    resource's top-Schmidt gap above uniform, its concurrence when d = 2,
    and a per-row perfection flag.  The summary certifies whether the
    metric reaches 1 only at the uniform spectrum and whether it is
    monotone in the resource entanglement.  Encodings are fixed to the
    constructive family (phase encodings on the noiseless span), so this is
    construction-family necessity, not an optimization over all encodings.
    """
    rows = []
    for spec in spectra:
        resource = ResourceState.from_schmidt(spec)
        if resource.d != d:
            raise ValueError(f"spectrum {spec} has {resource.d} entries, expected {d}")
        lam = np.asarray(spec, dtype=float)
        row = {
            "spectrum": tuple(float(s) for s in lam),
            "top_schmidt_gap": float(lam.max() - 1.0 / d),
        }
        if d == 2:
            row["resource_concurrence"] = float(2.0 * math.sqrt(max(lam[0] * lam[1], 0.0)))
        if protocol == "private-dit":
            runs = [run_private_dit(d, x, resource) for x in range(d)]
            row["metric"] = min(t.metrics["success_probability"] for t in runs)
            if d == 2:
                row["optimal_decode_success"] = _optimal_two_state_success(runs)
        elif protocol == "bipartite":
            row["metric"] = run_bipartite_establishment(d, resource).metrics["fidelity_mean"]
        elif protocol == "ghz":
            row["metric"] = run_ghz_distribution(d, n_receivers, resource).metrics[
                "fidelity_mean"
            ]
        else:
            raise ValueError(f"unknown protocol tag {protocol!r}")
        row["is_perfect"] = bool(row["metric"] >= 1.0 - 1e-9)
        rows.append(row)

    uniform_rows = [
        i
        for i, r in enumerate(rows)
        if max(abs(s - 1.0 / d) for s in r["spectrum"]) <= 1e-9
    ]
    perfect_rows = [i for i, r in enumerate(rows) if r["is_perfect"]]
    order = sorted(range(len(rows)), key=lambda i: rows[i]["top_schmidt_gap"])
    metrics_by_gap = [rows[i]["metric"] for i in order]
    monotone = all(
        metrics_by_gap[i] + 1e-12 >= metrics_by_gap[i + 1]
        for i in range(len(metrics_by_gap) - 1)
    )
    summary = {
        "perfect_only_at_uniform": set(perfect_rows) == set(uniform_rows) and bool(perfect_rows)
        if uniform_rows
        else not perfect_rows,
        "perfect_rows": perfect_rows,
        "monotone_in_entanglement": monotone,
    }
    return {"protocol": protocol, "d": d, "rows": rows, "summary": summary}


def _optimal_two_state_success(runs: list[ProtocolTranscript]) -> float:
    """Best two-state decode averaged over the controller's announcement."""
    d = runs[0].params["d"]
    fb = fourier_basis(d)
    total = 0.0
    branch_states = []
    for t in runs:
        per_mc = {}
        for cb in projective_measure(t.stage("transmitted"), fb, "C"):
            per_mc[cb.outcome] = (cb.probability, cb.state)
        branch_states.append(per_mc)
    for mc in range(d):
        p0, s0 = branch_states[0][mc]
        p1, s1 = branch_states[1][mc]
        if s0 is None or s1 is None:
            continue
        weight = 0.5 * (p0 + p1)
        err = helstrom_error(s0, s1, p0 * 0.5 / weight)
        total += weight * (1.0 - err)
    return float(total)
