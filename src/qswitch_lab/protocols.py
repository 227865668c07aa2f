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
returning a :class:`ProtocolTranscript`, the one record of a run: the state
after every stage by name, the controller's measurement and every branch;
one step of every pipeline transmits and measures.  Each pipeline takes a
resource state or a stack of them (``linalg``), so a necessity sweep runs
its rows of one resource support together.  The
pre-measurement GGM of a GHZ run is skipped, with the reason recorded in the
metrics, past ``policy.max_ggm_parties``.  A fixed-configuration baseline and necessity
sweeps over non-uniform Schmidt spectra probe why coherent control and
maximal resource entanglement are needed.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .channels import apply_coincidence
from .linalg import (
    DensityMatrix,
    Ket,
    SubsystemLayout,
    _SupportsDiffer,
    _branches,
    _clamp,
    _densities,
    _measured,
    _readonly,
    apply_unitary,
    basis_ket,
    fidelity_with_ket,
    fourier_basis,
    ghz_ket,
    partial_trace,
    permute_basis,
    tensor,
    trace_distance,
)
from .metrics import (
    _helstrom_errors, concurrence_2qubit, ggm, is_maximally_entangled, mutual_information,
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
    generalization of a CNOT fan-out: sum_k |k><k| (x) (X^k)^(x n), X the
    cyclic shift |a> -> |a + 1 mod d>.  No caller in the package: the
    protocols apply :func:`clone_permutation`.  It stays as the dense
    reference that tests compare the permutation with, bit for bit.
    """
    if d < 2 or n_copies < 1:
        raise ValueError("need d >= 2 and at least one copy")
    dim = d ** (n_copies + 1)
    guard_dimension(dim, "cloning unitary")
    shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)
    block = dim // d
    u = np.zeros((dim, dim), dtype=complex)
    for k in range(d):
        # |k><k| (x) (X^k)^(x n) is the k-th diagonal block
        power = functools.reduce(np.kron, [np.linalg.matrix_power(shift, k)] * n_copies)
        u[k * block:(k + 1) * block, k * block:(k + 1) * block] = power
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
        guard_dimension(d * d, "resource")
        return cls("max", ghz_ket(d, 2).density(SubsystemLayout((d, d), ("A", "C"))))

    @classmethod
    def from_schmidt(cls, spectrum) -> "ResourceState":
        spec = _schmidt_spectrum(spectrum)
        return cls("schmidt:" + ",".join(f"{s:.12g}" for s in spec), _schmidt_states(spec))

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


def _schmidt_spectrum(spectrum) -> tuple[float, ...]:
    """A Schmidt spectrum as floats, checked: nonnegative within the
    structural tolerance, and summing to 1."""
    spec = tuple(float(s) for s in spectrum)
    if not all(s >= -policy.structural_tol for s in spec):  # rejects NaN too
        raise ValueError("Schmidt spectrum entries must be nonnegative")
    total = functools.reduce(operator.add, spec, 0.0)  # left to right on every Python
    if not abs(total - 1.0) <= policy.structural_tol:
        raise ValueError(f"Schmidt spectrum sums to {total!r}, not 1")
    return spec


def _schmidt_states(spectra) -> DensityMatrix:
    """The resource sum_j sqrt(lam_j) |jj> on ("A", "C") of a checked
    spectrum, or the stack of them over checked spectra of one length d."""
    spectra = np.asarray(spectra, dtype=float)
    d = spectra.shape[-1]
    guard_dimension(d * d, "resource")
    amps = np.zeros(spectra.shape[:-1] + (d * d,), dtype=complex)
    amps[..., :: d + 1] = np.sqrt(np.maximum(spectra, 0.0))  # sqrt(lam_j) on |jj>
    kets = [Ket(a).amplitudes for a in amps.reshape(-1, d * d)]  # each checked
    return _densities(np.array(kets).reshape(amps.shape), SubsystemLayout((d, d), ("A", "C")))


@dataclass(frozen=True, eq=False)
class Branch:
    controller_outcome: int
    probability: float
    receiver_outcomes: tuple[int, ...] | None
    decoded: int | None
    state: DensityMatrix | None
    metrics: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class ProtocolTranscript:
    """One run: ``stages`` maps each stage name to its state, in pipeline
    order; ``measured`` holds the controller's measurement branches, each
    with its state, and stays out of the JSON and the repr."""

    protocol_id: str
    params: dict
    stages: dict[str, DensityMatrix]
    branches: list[Branch]
    metrics: dict
    measured: list = field(repr=False)


def _transmit_and_measure(stages: dict, d: int, senders: tuple, receivers: tuple) -> list:
    """Send the senders of the last stage (a stack) through the coincidence
    channel with the controller C, relabel them to the receivers, record the
    result as the ``transmitted`` stage and measure C in the Fourier basis
    (``linalg._measured``)."""
    sent = apply_coincidence(next(reversed(stages.values())), senders + ("C",))
    stages["transmitted"] = sent = sent.relabel(dict(zip(senders, receivers)))
    return _measured(sent, fourier_basis(d), "C")


# ---------------------------------------------------------------------------
# Private dit transmission
# ---------------------------------------------------------------------------


def run_private_dit(d: int, x: int, resource: ResourceState) -> ProtocolTranscript:
    """Send the classical value x through the coincidence channel.

    Pipeline: phase-encode x on the sender's half, transmit through the
    coincidence channel (sender side relabeled to the receiver), then
    enumerate the controller's and receiver's Fourier measurements.  The
    decode rule is x_hat = (m_receiver + m_controller) mod d, matching the
    +-sign Fourier convention.  A receiver outcome probability below zero
    by round-off reads 0; one below ``-policy.spectral_tol`` raises.
    """
    guard_dimension(d * d, "private-dit")
    if not 0 <= x < d:
        raise ValueError(f"message {x} out of range for dimension {d}")
    stages, measured, joint = _private_dit_stack(d, x, resource.state(d))
    measured = _branches(measured)
    branches: list[Branch] = []
    for cb in measured:
        if cb.state is None:
            branches.append(Branch(cb.outcome, 0.0, None, None, None))
            continue
        for mb in range(d):
            p = float(joint[mb, cb.outcome])
            branches.append(Branch(cb.outcome, p, (mb,), (mb + cb.outcome) % d,
                                   None if p < policy.null_branch_tol else cb.state))
    metrics = {
        "success_probability": float(_decoded(joint, x)),
        "charlie_pmf": [cb.probability for cb in measured],
        "joint_pmf": joint.tolist(),
        "branch_probability_total": float(joint.sum()),
    }
    params = {"d": d, "x": x, "resource": resource.name}
    return ProtocolTranscript("private-dit", params, stages, branches, metrics, measured)


def _private_dit_stack(d: int, x: int, rho0: DensityMatrix) -> tuple:
    """The private-dit pipeline over a resource state, or a stack of them: its
    stages, the controller's measurement and the joint pmf ``joint[m_B, m_C]``
    (of each row)."""
    stages = {"resource": rho0, "encoded": apply_unitary(rho0, phase_unitary(x, d), ("A",))}
    measured = _transmit_and_measure(stages, d, ("A",), ("B",))
    kets = np.array([k.amplitudes for k in fourier_basis(d)])[:, None, None, :]  # (m_B, 1, 1, d)
    probs = np.zeros(rho0.block.shape[:-2] + (d, d))  # [(row,) m_C, m_B]
    for mc, (p, live, state) in enumerate(measured):
        if state is None:
            continue
        # the receiver's state is a single-qudit system; each outcome's
        # probability is one vector-matrix product with the basis amplitudes
        # per row (a matrix product with the stacked bras would round
        # differently), then a (1, d) by (d, 1) product, the vector dot
        inner = np.matmul(np.matmul(kets.conj(), state.entries), kets.swapaxes(-1, -2))
        probs[live, mc] = np.real(inner[..., 0, 0]).T * p[live, None]
    probs = _clamp(probs, "receiver outcome probability", math.inf)
    return stages, measured, np.ascontiguousarray(probs.swapaxes(-1, -2))


def _decoded(joint: np.ndarray, x: int):
    """The probability of decoding x: the sum of the cells of ``joint[..., m_B,
    m_C]`` with m_B + m_C = x mod d, left to right."""
    d = joint.shape[-1]
    return functools.reduce(operator.add, (joint[..., mb, (x - mb) % d] for mb in range(d)), 0.0)


def privacy_report(transcripts: list[ProtocolTranscript]) -> dict:
    """Cross-message leakage metrics from one transcript per message value.

    Reports the worst pairwise trace distance between the controller's
    reduced states, the worst total-variation distance between his outcome
    distributions, and the equal-prior Helstrom error for every pair.
    """
    _shared_dimension(transcripts)
    charlie_states = [partial_trace(t.stages["transmitted"], ("C",)) for t in transcripts]
    pmfs = [np.asarray(t.metrics["charlie_pmf"]) for t in transcripts]
    pairs = list(itertools.combinations(range(len(transcripts)), 2))
    tds = {(i, j): trace_distance(charlie_states[i], charlie_states[j]) for i, j in pairs}
    tvs = [total_variation(pmfs[i], pmfs[j]) for i, j in pairs]
    return {
        "max_pairwise_trace_distance": max([0.0, *tds.values()]),
        "max_pairwise_outcome_tv": max([0.0, *tvs]),
        # the equal-prior Helstrom errors
        "helstrom_errors": {pair: 0.5 * (1.0 - td) for pair, td in tds.items()},
        "charlie_pmfs": [p.tolist() for p in pmfs],
    }


def _shared_dimension(transcripts: list[ProtocolTranscript]) -> int:
    """The dimension d of a nonempty private-dit ensemble of one d and one
    resource state: its support and block, whatever its name."""
    if not transcripts:
        raise ValueError("need at least one transcript")
    kinds = sorted({t.protocol_id for t in transcripts})
    if kinds != ["private-dit"]:
        raise ValueError(f"need private-dit transcripts only, got {kinds}")
    d, first = transcripts[0].params["d"], transcripts[0].stages["resource"]
    for t in transcripts:
        rho = t.stages["resource"]
        if t.params["d"] != d or not (np.array_equal(rho.support, first.support)
                                      and np.array_equal(rho.block, first.block)):
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


def _establishment_core(d: int, n_receivers: int, resource: ResourceState, protocol_id: str):
    """The measured core of a run: its stages, the controller's measurement,
    the corrected branches with their fidelities and, as its one metric, the
    branch-averaged fidelity, all a sweep row needs."""
    stages, measured, corrected, fidelity_mean = _establishment_stack(
        d, n_receivers, resource.state(d), protocol_id)
    measured = _branches(measured)
    branches: list[Branch] = []
    for cb, (state, f) in zip(measured, corrected):
        if cb.state is None:
            branches.append(Branch(cb.outcome, 0.0, None, None, None))
            continue
        branches.append(Branch(cb.outcome, cb.probability, (), None, state, {"fidelity": f}))
    params = {"d": d, "receivers": n_receivers, "resource": resource.name}
    metrics = {"fidelity_mean": float(fidelity_mean)}
    return ProtocolTranscript(protocol_id, params, stages, branches, metrics, measured)


def _establishment_stack(
    d: int, n_receivers: int, rho0: DensityMatrix, protocol_id: str
) -> tuple:
    """The measured core over a resource state, or a stack of them: its
    stages, the controller's measurement, per outcome the corrected state of
    a live branch (of the live rows) and its fidelity, and the
    branch-averaged fidelity (of each row)."""
    if n_receivers < 1:
        raise ValueError("need at least one receiver")
    guard_dimension(d ** (n_receivers + 2), protocol_id)
    send_labels = tuple(f"A{i}" for i in range(1, n_receivers + 1))
    recv_labels = tuple(f"B{i}" for i in range(1, n_receivers + 1))
    # one |0..0> state holds the ancilla of every receiver
    ancillas = basis_ket(d ** n_receivers, 0).density(
        SubsystemLayout((d,) * n_receivers, send_labels))
    extended = tensor(rho0, ancillas).reorder(("A",) + send_labels + ("C",))
    stages = {
        "resource": rho0,
        "extended": extended,
        "cloned": permute_basis(extended, clone_permutation(d, n_receivers), ("A",) + send_labels),
    }
    measured = _transmit_and_measure(stages, d, send_labels, recv_labels)

    target = ghz_ket(d, n_receivers + 1)
    corrected = []
    # left to right on every Python, which a builtin sum() of floats is not
    # (3.12's is compensated)
    fidelity_mean = np.zeros(rho0.block.shape[:-2])
    for k, (p, live, state) in enumerate(measured):
        if state is None:
            corrected.append((None, None))
            continue
        state = apply_unitary(state, phase_unitary(k, d), (recv_labels[0],))
        f = fidelity_with_ket(state, target)
        fidelity_mean[live] += p[live] * f
        corrected.append((state, f))
    return stages, measured, corrected, fidelity_mean


def _establishment_run(
    d: int, n_receivers: int, resource: ResourceState, protocol_id: str
) -> ProtocolTranscript:
    """The measured core, with the diagnostics read off its stages and
    branches added to its record."""
    t = _establishment_core(d, n_receivers, resource, protocol_id)
    # the pre-measurement GGM is an optional diagnostic: past the bipartition
    # cap it is skipped with a recorded reason instead of aborting the run
    sent = t.stages["transmitted"]
    if sent.is_pure():
        parties = sent.layout.n_subsystems
        if parties > policy.max_ggm_parties:
            t.metrics["pre_measurement_ggm_skipped"] = (
                f"{parties} parties exceed the bipartition cap of {policy.max_ggm_parties}"
            )
        else:
            t.metrics["pre_measurement_ggm"] = ggm(sent.to_ket(), sent.layout)

    live = [b for b in t.branches if b.state is not None]
    for b in live:
        if b.state.is_pure():  # a mixed branch state has no "maximally_entangled" entry
            b.metrics["maximally_entangled"] = is_maximally_entangled(
                b.state.to_ket(), b.state.layout, (b.state.layout.labels[0],)
            )
    t.metrics.update(
        fidelity_min=min((b.metrics["fidelity"] for b in live), default=0.0),
        charlie_pmf=[cb.probability for cb in t.measured],
        maximally_entangled_all_branches=all(
            b.metrics.get("maximally_entangled", False) for b in live),
    )
    if (d, n_receivers) == (2, 1):  # only the qubit pair reads the branch average
        avg_state = np.zeros((4, 4), dtype=complex)
        for b in live:
            avg_state += b.probability * b.state.entries
        t.metrics["average_output_concurrence"] = concurrence_2qubit(
            DensityMatrix(avg_state, live[0].state.layout)
        )
    return t


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

    min_td = min([1.0, *itertools.starmap(trace_distance, itertools.combinations(marginals, 2))])
    bound = (1.0 + min_td) / 2.0
    # two messages: the Helstrom measurement attains the bound
    success = bound if d == 2 else _discrimination_success([m.entries for m in marginals])

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
    # a pseudo-inverse cut, not a check: no verdict compares against it, and
    # as ``policy.spectral_tol`` it would let ``--tol`` move the success
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
    guard_dimension(d * d, "encodings")
    layout = SubsystemLayout((d, d), ("T", "C"))
    return [ghz_ket(d, 2, x).density(layout) for x in range(d)]


def classical_flag_encodings(d: int) -> list[DensityMatrix]:
    """Encodings that copy the message into the control: |0>(x)|x>."""
    guard_dimension(d * d, "encodings")
    layout = SubsystemLayout((d, d), ("T", "C"))
    return [tensor(basis_ket(d, 0), basis_ket(d, x)).density(layout) for x in range(d)]


# ---------------------------------------------------------------------------
# Necessity sweeps
# ---------------------------------------------------------------------------

# certification thresholds: part of the claim a sweep certifies, not numeric
# tolerances of a computation, so ``policy`` and ``--tol`` leave them fixed.
# A spectrum is uniform when its closed-form deficit is at most the
# perfection slack, so that the two verdicts are on one scale
_PERFECT_SLACK = 1e-9    # a metric at or above 1 - this is perfect
_MONOTONE_SLACK = 1e-12  # a rise of at most this along the gap order is monotone


def _uniformity_deficit(spectrum) -> float:
    """1 - (sum_j sqrt(lam_j))^2 / d, the closed-form deficit of each sweep
    metric: by Cauchy-Schwarz 0 only at the uniform spectrum."""
    roots = functools.reduce(operator.add, (math.sqrt(max(s, 0.0)) for s in spectrum), 0.0)
    return 1.0 - roots * roots / len(spectrum)


def necessity_sweep(
    protocol: str, d: int, spectra: list, n_receivers: int = 1
) -> dict:
    """Protocol quality across a grid of resource Schmidt spectra.

    One row per spectrum with the protocol metric (worst-case success for
    the private dit, branch-averaged target fidelity otherwise, from the
    run's measured core alone), the resource's top-Schmidt gap above uniform,
    its concurrence when d = 2, and a per-row perfection flag.  The summary
    certifies whether the metric reaches 1 only at the uniform spectrum and
    whether it is monotone in the resource entanglement.  Encodings are
    fixed to the constructive family (phase encodings on the noiseless
    span), so this is construction-family necessity, not an optimization
    over all encodings.  The resources of one support run as one stack,
    each row to the bit as a run of its own.
    """
    if protocol not in ("private-dit", "bipartite", "ghz"):
        raise ValueError(f"unknown protocol tag {protocol!r}")
    specs = [_schmidt_spectrum(spec) for spec in spectra]
    for spec, checked in zip(spectra, specs):
        if len(checked) != d:
            raise ValueError(f"spectrum {spec} has {len(checked)} entries, expected {d}")
    n_receivers = n_receivers if protocol == "ghz" else 1
    by_support: dict[tuple, list[int]] = {}
    for i, spec in enumerate(specs):
        by_support.setdefault(tuple(s > 0.0 for s in spec), []).append(i)
    measures: dict[int, dict] = {}
    for members in by_support.values():
        group = [specs[i] for i in members]
        try:
            found = _stack_measures(protocol, d, n_receivers, _schmidt_states(group))
        except _SupportsDiffer:  # later states part ways on the support: one row a stack
            found = [m for spec in group
                     for m in _stack_measures(protocol, d, n_receivers, _schmidt_states([spec]))]
        measures.update(zip(members, found))

    rows = []
    for i, spec in enumerate(specs):
        row = {"spectrum": spec, "top_schmidt_gap": float(max(spec) - 1.0 / d)}
        if d == 2:
            row["resource_concurrence"] = float(2.0 * math.sqrt(max(spec[0] * spec[1], 0.0)))
        row.update(measures[i])
        row["is_perfect"] = bool(row["metric"] >= 1.0 - _PERFECT_SLACK)
        rows.append(row)

    uniform_rows = [i for i, spec in enumerate(specs)
                    if _uniformity_deficit(spec) <= _PERFECT_SLACK]
    perfect_rows = [i for i, r in enumerate(rows) if r["is_perfect"]]
    by_gap = [r["metric"] for r in sorted(rows, key=lambda r: r["top_schmidt_gap"])]
    summary = {
        # with no uniform row: true iff no row is perfect
        "perfect_only_at_uniform": set(perfect_rows) == set(uniform_rows),
        "perfect_rows": perfect_rows,
        "monotone_in_entanglement": all(
            a + _MONOTONE_SLACK >= b for a, b in zip(by_gap, by_gap[1:])),
    }
    return {"protocol": protocol, "d": d, "rows": rows, "summary": summary}


def _stack_measures(protocol: str, d: int, n_receivers: int, rho0: DensityMatrix) -> list[dict]:
    """The sweep measures of each row of a stack of resources: the metric,
    and for a private bit the optimal decode."""
    if protocol != "private-dit":  # the measured core, no diagnostics
        mean = _establishment_stack(d, n_receivers, rho0, protocol)[3]
        return [{"metric": float(f)} for f in mean]
    runs = [_private_dit_stack(d, x, rho0) for x in range(d)]
    worst = functools.reduce(np.minimum, (_decoded(joint, x) for x, (*_, joint) in enumerate(runs)))
    rows = [{"metric": float(m)} for m in worst]
    if d == 2:
        for row, s in zip(rows, _optimal_two_state_success(runs[0][1], runs[1][1])):
            row["optimal_decode_success"] = float(s)
    return rows


def _optimal_two_state_success(measured0: list, measured1: list) -> np.ndarray:
    """Each row's best two-state decode averaged over the controller's
    announcement, from his measurements of the stacks for messages 0 and 1:
    one stacked Helstrom error per outcome."""
    total = np.zeros(len(measured0[0][0]))
    for (p0, live0, s0), (p1, live1, s1) in zip(measured0, measured1):
        both = live0 & live1
        if not both.any():
            continue
        weight = 0.5 * (p0[both] + p1[both])
        err = _helstrom_errors(s0.entries[both[live0]], s1.entries[both[live1]],
                               p0[both] * 0.5 / weight)
        total[both] += weight * (1.0 - err)
    return total
