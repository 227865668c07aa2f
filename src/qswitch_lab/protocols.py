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

The sender's phase encoding and the receiver's correction are one diagonal
gate, its phases ``phase_vector``, applied by ``linalg.apply_phases``.  The
channel is applied through ``channels.apply_coincidence``, its closed
action; no Kraus list is built here (the dense Kraus action of
``combinators.k_multiline`` is the oracle it is tested against).  Likewise
the clone fan-out, a permutation of basis states, is applied by
``clone_fan_out``, which moves the support's indices by their digits; the
tests hold the dense action of its unitary as the oracle.  The receivers'
|0> ancillas join the resource the same way: each support index a*d + c
moves to a*d^(N+1) + c, with no Kronecker product and no check.
All runs are pure functions returning a :class:`ProtocolTranscript`, the one
record of a run: the state after every stage by name, the controller's
measurement and every branch; one step of every pipeline transmits and
measures, through ``linalg.projective_measure``.  Each pipeline takes a
resource state or a stack of them (``linalg``), so a necessity sweep runs
its rows together, whatever their supports; a stack's measurement holds each
row's probability and the stack of the rows' states per outcome.  Within a
run the live branches are one stack too, on the union of their supports:
they are corrected in one ``apply_phases`` call, each with its own phases on
its row, and scored in one ``fidelity_with_ket`` call, and a private dit
reads every receiver probability in one elementwise product with the
Fourier amplitudes, added left to right, as a fidelity is.  One runner,
``_message_stacks``, sends every message of a private dit over a resource
or a sweep's stack of them, as stacks with the message axis first, each
message with its own phases and each stack as large as the entry budget
``_ENSEMBLE_ENTRIES`` admits.  The ensemble behind ``run private-dit``
(``run_private_dit_ensemble``) takes its privacy report from the stack of
the transmitted states: one ``partial_trace`` call, and the trace distances
of all pairs in one call, as the fixed-order baseline takes its own.  The
pre-measurement GGM of a GHZ run is skipped, with the reason recorded in
the metrics, past ``MAX_GGM_PARTIES``.  A fixed-configuration baseline and
necessity sweeps over non-uniform Schmidt spectra probe why coherent
control and maximal resource entanglement are needed.
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
    MeasurementBranch,
    SubsystemLayout,
    _check_norms,
    _clamp,
    _densities,
    _expectations,
    _half_trace_norms,
    _readonly,
    _remapped,
    _stacked,
    _sum_left,
    apply_phases,
    fidelity_with_ket,
    fourier_basis,
    ghz_ket,
    partial_trace,
    projective_measure,
)
from .metrics import (
    concurrence_2qubit, ggm, helstrom_error, is_maximally_entangled, total_variation,
)
from .numeric import MAX_GGM_PARTIES, NULL_BRANCH_TOL, STRUCTURAL_TOL, guard_dimension, policy


# ---------------------------------------------------------------------------
# Local unitaries
# ---------------------------------------------------------------------------


@functools.cache  # depends only on its integers and is immutable: built once
def phase_vector(k: int, d: int) -> np.ndarray:
    """The phases exp(2*pi*i*j*k/d), j = 0..d-1, of the diagonal phase gate
    (Z^k for d = 2); read-only.

    The sender encodes message k with the gate on her half of the canonical
    maximally entangled pair, which gives the k-th member of the phased
    family.  The receiver applies it for the controller's Fourier outcome k:
    with the +-sign Fourier convention that outcome leaves phases
    exp(-2*pi*i*j*k/d) on the |j...j> components, which the gate undoes.
    The protocols apply it through ``apply_phases``.
    """
    if not 0 <= k < d:
        raise ValueError(f"phase index {k} out of range for dimension {d}")
    return _readonly(np.exp(2j * np.pi * np.arange(d) * k / d))


def clone_fan_out(rho: DensityMatrix, source: str, targets) -> DensityMatrix:
    """Conjugate a state, or a stack, by the fan-out of ``source`` onto
    ``targets``: |k, a_1, ..., a_n> -> |k, a_1 + k, ..., a_n + k> (mod d).

    Equals the dense action of the fan-out unitary on ``(source, *targets)``
    (the tests' oracle ``kraus_apply``) bit for bit, but moves each support
    index by its digits instead of multiplying, so it builds nothing over
    the basis.  The labels must be known and distinct, with at least one
    target, all of one dimension d.
    """
    targets = tuple(targets)
    positions = rho.layout.positions((source,) + targets)
    dims = rho.layout.dims
    d = dims[positions[0]]
    if not targets or any(dims[p] != d for p in positions):
        raise ValueError(f"a fan-out needs a source and at least one target of one "
                         f"dimension, got {(source,) + targets} of dimensions "
                         f"{tuple(dims[p] for p in positions)}")
    strides = [math.prod(dims[p + 1:]) for p in positions]
    k = rho.support // strides[0] % d
    moved = rho.support.copy()
    for stride in strides[1:]:
        a = rho.support // stride % d
        moved += ((a + k) % d - a) * stride
    return _remapped(rho, rho.layout, moved)


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
    if not all(s >= -STRUCTURAL_TOL for s in spec):  # rejects NaN too
        raise ValueError("Schmidt spectrum entries must be nonnegative")
    total = functools.reduce(operator.add, spec, 0.0)  # left to right on every Python
    if not abs(total - 1.0) <= STRUCTURAL_TOL:
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
    _check_norms(amps)  # every row in one call, as a Ket checks its own
    return _densities(amps, SubsystemLayout((d, d), ("A", "C")))


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
    result as the ``transmitted`` stage and measure C in the Fourier basis."""
    sent = apply_coincidence(next(reversed(stages.values())), senders + ("C",))
    stages["transmitted"] = sent = sent.relabel(dict(zip(senders, receivers)))
    return projective_measure(sent, fourier_basis(d), "C")


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
    _check_message(d, x)
    stages, measured, joint = _private_dit_stack(d, phase_vector(x, d), resource.state(d))
    return _private_dit_transcript(d, x, resource, stages, measured, joint)


def run_private_dit_ensemble(
    d: int, x: int, resource: ResourceState
) -> tuple[ProtocolTranscript, dict]:
    """Send every message 0..d-1 and return the transcript of message x and
    the ensemble's privacy report: ``run_private_dit(d, x, resource)`` and
    ``privacy_report`` of the d lone runs, to the bit.

    The messages run as stacks of the resource (``_message_stacks``).  Only
    message x's transcript is built, from the stack that runs last; the
    report comes from the stack of the transmitted states.
    """
    _check_message(d, x)
    guard_dimension(d * d, "private-dit")
    rho0 = resource.state(d)

    def read(messages: range, stages: dict, measured: list, joint: np.ndarray) -> tuple:
        pmfs = np.array([cb.probability for cb in measured]).T  # a row per message
        if x not in messages:
            return stages["transmitted"], pmfs, None
        i = x - messages.start
        lone = {name: rho0 if name == "resource" else state._row(i) for name, state in stages.items()}
        branches = [MeasurementBranch(cb.outcome, float(cb.probability[i]),
                                      None if cb.state is None else cb.state._row(i))
                    for cb in measured]
        transcript = _private_dit_transcript(d, x, resource, lone, branches, joint[i])
        return stages["transmitted"], pmfs, transcript

    sent, pmfs, transcripts = zip(*_message_stacks(d, rho0, read, last=x))
    sent = sent[0] if len(sent) == 1 else _stacked(
        [s._row(i) for s in sent for i in range(s.block.shape[0])])
    return next(filter(None, transcripts)), _privacy(sent, np.concatenate(pmfs))


def _message_stacks(d: int, rho0: DensityMatrix, read, last: int = 0) -> list:
    """Run every message 0..d-1 over a resource state, or a stack of them, as
    stacks with the message axis first (lead ``(messages, *rows)``), each
    message with its own phases, and return ``read(messages, stages,
    measured, joint)`` of each stack (``_private_dit_stack``), in message
    order.

    Every step works entry by entry, so a row keeps the bits of its lone
    run.  A stack holds as many messages as ``_ENSEMBLE_ENTRIES`` admits once
    the rows are counted, and a message over it runs alone.  The stack that
    holds message ``last`` runs last, and only what ``read`` returns outlives
    its stack.
    """
    rows = math.prod(rho0.block.shape[:-2])
    # a message's largest temporaries per row: the d^2 terms per entry of its
    # branch blocks that the receiver probabilities take, on at most min(d, k)
    # indices (the channel's output lies in the coincidence span), and the
    # k^2 <= d^4 entries of its encoded state
    size = max(1, _ENSEMBLE_ENTRIES // (rows * (d * min(d, rho0.support.size)) ** 2))

    def run(messages: range):  # a call per stack, so no stack is held while the next runs
        phases = np.array([phase_vector(m, d) for m in messages])
        phases = phases.reshape((len(messages),) + (1,) * (rho0.block.ndim - 2) + (d,))
        block = np.broadcast_to(rho0.block, (len(messages),) + rho0.block.shape)
        stack = DensityMatrix._unchecked(rho0.layout, rho0.support, block)
        return read(messages, *_private_dit_stack(d, phases, stack))

    own = last - last % size
    starts = [s for s in range(0, d, size) if s != own] + [own]
    runs = {s: run(range(s, min(s + size, d))) for s in starts}
    return [runs[s] for s in sorted(runs)]


def _check_message(d: int, x: int) -> None:
    if not 0 <= x < d:
        raise ValueError(f"message {x} out of range for dimension {d}")


def _private_dit_transcript(
    d: int, x: int, resource: ResourceState, stages: dict, measured: list, joint: np.ndarray
) -> ProtocolTranscript:
    """The record of message x's run from its stages, the controller's
    measurement and the joint pmf ``joint[m_B, m_C]``: a branch per
    controller and receiver outcome, and the decode metrics."""
    pmf = joint.tolist()
    branches: list[Branch] = []
    for cb in measured:
        if cb.state is None:
            branches.append(Branch(cb.outcome, 0.0, None, None, None))
            continue
        for mb in range(d):
            p = pmf[mb][cb.outcome]
            branches.append(Branch(cb.outcome, p, (mb,), (mb + cb.outcome) % d,
                                   None if p < NULL_BRANCH_TOL else cb.state))
    metrics = {
        "success_probability": float(_decoded(joint, x)),
        "charlie_pmf": [cb.probability for cb in measured],
        "joint_pmf": pmf,
        "branch_probability_total": float(joint.sum()),
    }
    params = {"d": d, "x": x, "resource": resource.name}
    return ProtocolTranscript("private-dit", params, stages, branches, metrics, measured)


def _private_dit_stack(d: int, phases: np.ndarray, rho0: DensityMatrix) -> tuple:
    """The private-dit pipeline over a resource state, or a stack of them: its
    stages, the controller's measurement and the joint pmf ``joint[m_B, m_C]``
    (of each row).  The message is ``phases``, its ``phase_vector``, or one
    per row of the stack (``apply_phases``'s per-row lead)."""
    stages = {"resource": rho0, "encoded": apply_phases(rho0, phases, "A")}
    measured = _transmit_and_measure(stages, d, ("A",), ("B",))
    live = [cb for cb in measured if cb.state is not None]
    states = _stacked([cb.state for cb in live])  # [m_C, (row,)] of the receiver's qudit
    # [m_B, 1, (1,), k]: each receiver outcome's Fourier ket on the support,
    # broadcast over the branches
    kets = np.array([k.amplitudes for k in fourier_basis(d)])[:, states.support]
    kets = kets.reshape((d,) + (1,) * (states.block.ndim - 2) + (-1,))
    inner = _expectations(states.block, kets)  # [m_B, m_C, (row)]
    p = np.array([cb.probability for cb in live])
    probs = np.zeros(rho0.block.shape[:-2] + (d, d))  # [(row,) m_C, m_B]
    outcomes = [cb.outcome for cb in live]
    probs[..., outcomes, :] = np.moveaxis(inner * p, (0, 1), (-1, -2))
    probs = _clamp(probs, "receiver outcome probability", math.inf)
    return stages, measured, np.ascontiguousarray(probs.swapaxes(-1, -2))


def _decoded(joint: np.ndarray, x: int):
    """The probability of decoding x: the sum of the cells of ``joint[..., m_B,
    m_C]`` with m_B + m_C = x mod d, left to right."""
    mb = np.arange(joint.shape[-1])
    return _sum_left(joint[..., mb, (x - mb) % mb.size])


def privacy_report(transcripts: list[ProtocolTranscript]) -> dict:
    """Cross-message leakage metrics from one transcript per message value.

    Reports the worst pairwise trace distance between the controller's
    reduced states, the worst total-variation distance between his outcome
    distributions, and the equal-prior Helstrom error for every pair.  The
    transcripts' transmitted states are stacked and reduced in one
    ``partial_trace`` call, as ``run_private_dit_ensemble`` reduces the
    stack its messages ran as, and every pair's trace distance is one
    ``eigvalsh`` call.
    """
    if not transcripts:
        raise ValueError("need at least one transcript")
    kinds = sorted({t.protocol_id for t in transcripts})
    if kinds != ["private-dit"]:
        raise ValueError(f"need private-dit transcripts only, got {kinds}")
    # one d and one resource state: its support and block, whatever its name
    d, first = transcripts[0].params["d"], transcripts[0].stages["resource"]
    for t in transcripts:
        rho = t.stages["resource"]
        if t.params["d"] != d or not (np.array_equal(rho.support, first.support)
                                      and np.array_equal(rho.block, first.block)):
            raise ValueError("transcripts must share dimension and resource")
    sent = _stacked([t.stages["transmitted"] for t in transcripts])
    return _privacy(sent, np.array([t.metrics["charlie_pmf"] for t in transcripts]))


def _privacy(sent: DensityMatrix, pmfs: np.ndarray) -> dict:
    """The privacy report of a stack of transmitted states, one row per
    message, and of each message's controller pmf (a row of ``pmfs``)."""
    pairs = list(itertools.combinations(range(len(pmfs)), 2))
    tds = dict(zip(pairs, _pairwise_trace_distances(partial_trace(sent, ("C",)))))
    tvs = [total_variation(pmfs[i], pmfs[j]) for i, j in pairs]
    return {
        "max_pairwise_trace_distance": max([0.0, *tds.values()]),
        "max_pairwise_outcome_tv": max([0.0, *tvs]),
        # the equal-prior Helstrom errors
        "helstrom_errors": {pair: 0.5 * (1.0 - td) for pair, td in tds.items()},
        "charlie_pmfs": pmfs.tolist(),
    }


def _pairwise_trace_distances(states: DensityMatrix) -> list[float]:
    """The trace distance of every pair of rows of a stack, in the order of
    ``itertools.combinations``, as ``trace_distance`` takes it, from one
    ``eigvalsh`` call.  The pairs' differences are formed in place, so at
    most two stacks of pairs are held at once."""
    first, second = np.triu_indices(states.block.shape[0], 1)  # in that order
    if not first.size:
        return []
    entries = states.entries
    diff = entries[first]
    diff -= entries[second]
    return _half_trace_norms(diff).tolist()


# ---------------------------------------------------------------------------
# Entanglement establishment
# ---------------------------------------------------------------------------


def _establishment_stack(
    d: int, n_receivers: int, rho0: DensityMatrix, protocol_id: str
) -> tuple:
    """The measured core over a resource state, or a stack of them: its
    stages, the controller's measurement, per outcome the corrected state of
    a live branch and its fidelity, and the branch-averaged fidelity (of
    each row), all a sweep row needs."""
    if n_receivers < 1:
        raise ValueError("need at least one receiver")
    guard_dimension(d ** (n_receivers + 2), protocol_id)
    send_labels = tuple(f"A{i}" for i in range(1, n_receivers + 1))
    recv_labels = tuple(f"B{i}" for i in range(1, n_receivers + 1))
    # the receivers' ancillas |0..0> between A and C: index a*d + c moves to
    # a*d^(N+1) + c, and moving entries changes no verdict
    layout = SubsystemLayout((d,) * (n_receivers + 2), ("A",) + send_labels + ("C",))
    a, c = np.divmod(rho0.support, d)
    extended = _remapped(rho0, layout, a * d ** (n_receivers + 1) + c)
    stages = {
        "resource": rho0,
        "extended": extended,
        "cloned": clone_fan_out(extended, "A", send_labels),
    }
    measured = _transmit_and_measure(stages, d, send_labels, recv_labels)

    # the live branches as one stack, each its row with its own correction;
    # the phases and the fidelity work entry by entry, so each row keeps the
    # bits of its own correction on the union of the supports
    live = [cb for cb in measured if cb.state is not None]
    stack = _stacked([cb.state for cb in live])
    phases = np.array([phase_vector(cb.outcome, d) for cb in live])
    phases = phases.reshape((len(live),) + (1,) * (stack.block.ndim - 3) + (d,))
    states = apply_phases(stack, phases, recv_labels[0])
    fidelities = fidelity_with_ket(states, ghz_ket(d, n_receivers + 1))
    if fidelities.ndim == 1:  # one state per branch: floats
        fidelities = fidelities.tolist()
    corrected = [(None, None)] * len(measured)
    for i, (cb, f) in enumerate(zip(live, fidelities)):
        corrected[cb.outcome] = (states._row(i), f)
    terms = [cb.probability * f for cb, (_, f) in zip(measured, corrected) if f is not None]
    return stages, measured, corrected, _sum_left(np.moveaxis(np.array(terms), 0, -1))


def _establishment_run(
    d: int, n_receivers: int, resource: ResourceState, protocol_id: str
) -> ProtocolTranscript:
    """The measured core as a record, with the diagnostics read off its
    stages and branches added to it."""
    stages, measured, corrected, fidelity_mean = _establishment_stack(
        d, n_receivers, resource.state(d), protocol_id)
    branches: list[Branch] = []
    for cb, (state, f) in zip(measured, corrected):
        if cb.state is None:
            branches.append(Branch(cb.outcome, 0.0, None, None, None))
            continue
        branches.append(Branch(cb.outcome, cb.probability, (), None, state, {"fidelity": f}))
    params = {"d": d, "receivers": n_receivers, "resource": resource.name}
    metrics = {"fidelity_mean": float(fidelity_mean)}
    # the pre-measurement GGM is an optional diagnostic: past the bipartition
    # cap it is skipped with a recorded reason instead of aborting the run
    sent = stages["transmitted"]
    if sent.is_pure():
        parties = sent.layout.n_subsystems
        if parties > MAX_GGM_PARTIES:
            metrics["pre_measurement_ggm_skipped"] = (
                f"{parties} parties exceed the bipartition cap of {MAX_GGM_PARTIES}"
            )
        else:
            metrics["pre_measurement_ggm"] = ggm(sent.to_ket(), sent.layout)

    live = [b for b in branches if b.state is not None]
    for b in live:
        if b.state.is_pure():  # a mixed branch state has no "maximally_entangled" entry
            b.metrics["maximally_entangled"] = is_maximally_entangled(
                b.state.to_ket(), b.state.layout, (b.state.layout.labels[0],)
            )
    metrics.update(
        fidelity_min=min((b.metrics["fidelity"] for b in live), default=0.0),
        charlie_pmf=[cb.probability for cb in measured],
        maximally_entangled_all_branches=all(
            b.metrics.get("maximally_entangled", False) for b in live),
    )
    if (d, n_receivers) == (2, 1):  # only the qubit pair reads the branch average
        avg_state = np.zeros((4, 4), dtype=complex)
        for b in live:
            avg_state += b.probability * b.state.entries
        metrics["average_output_concurrence"] = concurrence_2qubit(
            DensityMatrix(avg_state, live[0].state.layout)
        )
    return ProtocolTranscript(protocol_id, params, stages, branches, metrics, measured)


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
    marginal alone: perfect decoding forces the marginals to be pairwise
    perfectly distinguishable -- i.e. the controller can read the message too.
    ``bob_success`` is an achievable success on those marginals: Helstrom's,
    optimal, for d = 2, and beyond it the square-root measurement's, optimal
    for geometrically uniform sets (both CLI families) and in general within
    P_opt^2 <= P_sqrt <= P_opt (Barnum & Knill).  ``bob_success_upper_bound``,
    (1 + min pairwise trace distance)/2, bounds the worse message of the
    closest pair; for d > 2 not ``bob_success`` itself.
    """
    if not encoded_states:
        raise ValueError("need at least one encoded state")
    if len(encoded_states) != d:
        raise ValueError(f"need one encoded state per message, got {len(encoded_states)}")
    dims = encoded_states[0].layout.dims
    for st in encoded_states:
        if st.layout.n_subsystems != 2 or st.layout.dims != dims:
            raise ValueError("encoded states must share one target (x) control layout")
    control_label = encoded_states[0].layout.labels[1]
    marginals = [partial_trace(st, (control_label,)) for st in encoded_states]

    min_td = min([1.0, *_pairwise_trace_distances(_stacked(marginals))])
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
    # a pseudo-inverse cut, not a check: no verdict compares against it, and
    # as ``policy.spectral_tol`` it would let ``--tol`` move the success
    kept = vals > 1e-13
    inv_sqrt = (vecs[:, kept] / np.sqrt(vals[kept])) @ vecs[:, kept].conj().T
    success = 0.0
    for rho in states:
        m = inv_sqrt @ (rho / n) @ inv_sqrt
        success += float(np.real(np.trace(m @ rho))) / n
    return _clamp(success, "square-root measurement success")


def dfs_phase_encodings(d: int) -> list[DensityMatrix]:
    """The phased maximally entangled family as target-control encodings."""
    guard_dimension(d * d, "encodings")
    layout = SubsystemLayout((d, d), ("T", "C"))
    return [ghz_ket(d, 2, x).density(layout) for x in range(d)]


def classical_flag_encodings(d: int) -> list[DensityMatrix]:
    """Encodings that copy the message into the control: |0>(x)|x>."""
    guard_dimension(d * d, "encodings")
    layout = SubsystemLayout((d, d), ("T", "C"))
    # |0>|x> is basis state x: one support index
    return [DensityMatrix._of_block(layout, np.array([x]), np.ones((1, 1), complex))
            for x in range(d)]


# ---------------------------------------------------------------------------
# Necessity sweeps
# ---------------------------------------------------------------------------

# certification thresholds: part of the claim a sweep certifies, not numeric
# tolerances of a computation, so ``policy`` and ``--tol`` leave them fixed.
# A spectrum is uniform when its closed-form deficit is at most the
# perfection slack, so that the two verdicts are on one scale
_PERFECT_SLACK = 1e-9    # a metric at or above 1 - this is perfect
_MONOTONE_SLACK = 1e-12  # a rise of at most this along the gap order is monotone
# the most rows one stack of a sweep holds, so that its memory stays bounded
# as the grid grows; every pinned grid (101 rows) is one stack
_STACK_ROWS = 1024
# the most entries of the largest temporaries of one stack of private-dit
# messages (``_message_stacks``), for the ensemble's stacks of the resource
# and the sweep's stacks of messages over its rows: the ensemble with the
# maximal resource runs d <= 9 as one stack and d >= 16 one message at a
# time, and a 101-row d = 2 sweep runs both messages as one stack
_ENSEMBLE_ENTRIES = 2 ** 16


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
    over all encodings.  The resources run as stacks of at most
    ``_STACK_ROWS`` rows, in grid order and whatever their supports, each
    row to the bit as a run of its own: every step of the measured core
    works entry by entry, so a row held on a union of supports larger than
    its own keeps its bits.
    """
    if protocol not in ("private-dit", "bipartite", "ghz"):
        raise ValueError(f"unknown protocol tag {protocol!r}")
    if not len(spectra):
        raise ValueError("a sweep needs at least one spectrum")
    specs = [_schmidt_spectrum(spec) for spec in spectra]
    for spec, checked in zip(spectra, specs):
        if len(checked) != d:
            raise ValueError(f"spectrum {spec} has {len(checked)} entries, expected {d}")
    n_receivers = n_receivers if protocol == "ghz" else 1
    measures = []
    for i in range(0, len(specs), _STACK_ROWS):
        stack = _schmidt_states(specs[i:i + _STACK_ROWS])
        measures += _stack_measures(protocol, d, n_receivers, stack)
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

    def read(messages: range, stages: dict, measured: list, joint: np.ndarray) -> list:
        # each message's decode, and for a private bit its outcomes' probabilities and states
        return [(_decoded(joint[i], m), [(cb.probability[i], cb.state and cb.state._row(i))
                                         for cb in measured] if d == 2 else None)
                for i, m in enumerate(messages)]

    runs = [run for stack in _message_stacks(d, rho0, read) for run in stack]
    rows = [{"metric": float(m)} for m in functools.reduce(np.minimum, (r[0] for r in runs))]
    if d == 2:  # each row's best decode averaged over the controller's announcement
        total = np.zeros(len(rows))
        for (p0, state0), (p1, state1) in zip(runs[0][1], runs[1][1]):
            if state0 is not None and state1 is not None:  # one stacked Helstrom error
                weight = 0.5 * (p0 + p1)
                total += weight * (1.0 - helstrom_error(state0, state1, p0 * 0.5 / weight))
        for row, s in zip(rows, total):
            row["optimal_decode_success"] = float(s)
    return rows
