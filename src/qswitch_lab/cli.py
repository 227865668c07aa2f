"""Command-line front end: verify identities, run protocols, sweep resources.

Subcommands
-----------
``verify``
    Re-derive the structural identities numerically for a chosen dimension:
    order/choice coincidence, closed form vs brute-force enumeration,
    noiseless-subspace preservation, and the rank-one decomposition
    round-trip, each a row of :data:`CHECKS`.  Exit 0 iff every check
    passes (1 on failure, 2 on bad configuration).
``run``
    Execute one protocol (private-dit, bipartite, ghz, fixed-baseline) and
    write the full transcript (JSON) or a metric row (CSV).
``sweep``
    Evaluate a protocol over a grid of resource Schmidt spectra and write
    the resulting table as CSV.

Flags may also be supplied through a flat JSON config file (``--config``):
its values go through each flag's own type and choices, an integer flag takes
only a JSON integer and no flag a JSON boolean, and explicit flags override
them.  The environment variable ``QSWITCH_MAX_DIM`` overrides the default
resource guard; it is read only when neither ``--max-dim`` nor the config
file sets ``max_dim``.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass
from typing import Callable

import click
import numpy as np

from . import serialize
from .channels import apply_coincidence, channels_equal, erasing_channel, vacuum_extend
from .combinators import (
    coincidence_extensions,
    controlled_choice,
    cyclic_switch,
    k_multiline,
    k_multiline_enumerated,
    t_decomposition,
    target_sector_restriction,
)
from .linalg import DensityMatrix, SubsystemLayout, fidelity_with_ket, ghz_ket
from .numeric import ResourceGuardError, guard_dimension, policy
from .protocols import (
    ResourceState,
    classical_flag_encodings,
    dfs_phase_encodings,
    fixed_configuration_baseline,
    necessity_sweep,
    privacy_report,
    run_bipartite_establishment,
    run_ghz_distribution,
    run_private_dit,
)

_EXIT_CHECK_FAILED = 1


def _load_config(ctx: click.Context, param: click.Parameter, path: str | None) -> str | None:
    """Make the values of a ``--config`` file the command's flag defaults.

    ``--config`` is eager, so this runs before the other flags are read;
    click then converts and checks each file value with its flag's own type
    and choices, and an explicit flag still overrides the file.  Keys are
    the flag names of any command (as their Python names, e.g. ``max_dim``)
    plus ``command``; those another command uses are ignored, and a null
    value leaves the flag at its default.  A value is as strict as the flag:
    an integer flag takes only a JSON integer (not 3.9, nor 3.0), and no
    flag takes a JSON boolean.
    """
    if not path:
        return path
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise click.UsageError(f"cannot read config file {path}: {exc}")
    if not isinstance(cfg, dict):
        raise click.UsageError("config file must hold a flat JSON object")
    options = {
        p.name: p for cmd in main.commands.values() for p in cmd.params
        if isinstance(p, click.Option) and p.expose_value
    }
    unknown = set(cfg) - set(options) - {"command"}
    if unknown:
        raise click.UsageError(f"unknown config keys {sorted(unknown)}")
    for key, value in cfg.items():
        if isinstance(value, bool) or not isinstance(value, (str, int, float, type(None))):
            raise click.UsageError(
                f"config key {key!r} must be a string, number or null, got {type(value).__name__}"
            )
        int_option = key in options and isinstance(options[key].type, click.types.IntParamType)
        if isinstance(value, float) and int_option:
            raise click.UsageError(f"config key {key!r} must be an integer, got {value!r}")
    ctx.default_map = {
        **(ctx.default_map or {}), **{k: v for k, v in cfg.items() if v is not None}
    }
    return path


def _policy_options(command: Callable) -> Callable:
    """Add ``--tol``, ``--max-dim`` and ``--config`` to a command.

    The tolerance and guard overrides hold until the command ends.  The
    guard is ``--max-dim`` (from the flag or the config file), else the
    environment variable ``QSWITCH_MAX_DIM``, else the policy default.
    """

    @click.option("--tol", type=float, default=None, help="Override the spectral tolerance.")
    @click.option("--max-dim", type=int, default=None, help="Override the resource guard.")
    @click.option(
        "--config", type=str, default=None, is_eager=True, expose_value=False,
        callback=_load_config, help="Flat JSON config file; explicit flags override it.",
    )
    @click.pass_context
    @functools.wraps(command)
    def scoped(ctx: click.Context, tol: float | None, max_dim: int | None, **params):
        saved = (policy.max_dim, policy.spectral_tol)

        def restore() -> None:
            policy.max_dim, policy.spectral_tol = saved

        ctx.call_on_close(restore)  # runs on return, on ctx.exit and on errors alike
        env = os.environ.get("QSWITCH_MAX_DIM")
        if max_dim is None and env is not None:
            try:
                max_dim = int(env)
            except ValueError:
                raise click.UsageError(f"QSWITCH_MAX_DIM must be an integer, got {env!r}")
        if max_dim is not None:
            policy.max_dim = max_dim
        if tol is not None:
            policy.spectral_tol = tol
        return command(ctx, **params)

    return scoped


# the options more than one command declares
_d_option = functools.partial(click.option, "--d", type=int, default=2)
_receivers_option = click.option("--receivers", type=int, default=2, help="Receiver count for ghz.")


def _parse_resource(spec: str, d: int) -> ResourceState:
    if spec == "max":
        return ResourceState.maximally_entangled(d)
    if spec.startswith("schmidt:"):
        try:
            lams = [float(s) for s in spec[len("schmidt:"):].split(",")]
        except ValueError:
            raise click.UsageError(f"bad schmidt spectrum in {spec!r}")
        if len(lams) != d:
            raise click.UsageError(f"spectrum has {len(lams)} entries, expected {d}")
        return ResourceState.from_schmidt(lams)
    if spec.startswith("file:"):
        path = spec[len("file:"):]
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            entries = np.asarray(
                [[complex(re, im) for re, im in row] for row in payload["entries"]]
            )
            dm = DensityMatrix(
                entries,
                SubsystemLayout(tuple(payload["dims"]), tuple(payload["labels"])),
            )
        except (OSError, KeyError, TypeError, ValueError) as exc:
            raise click.UsageError(f"cannot load resource state from {path}: {exc}")
        return ResourceState.explicit(dm)
    raise click.UsageError(f"unknown resource spec {spec!r} (use max | schmidt:... | file:PATH)")


def _parse_alpha(spec: str) -> list[tuple[float, float]]:
    try:
        start, end, points = spec.split(":")
        start, end, points = float(start), float(end), int(points)
    except ValueError:
        raise click.UsageError(f"bad grid spec {spec!r} (use START:END:POINTS)")
    if points < 1 or not (0.0 <= start <= 1.0 and 0.0 <= end <= 1.0):
        raise click.UsageError(f"grid {spec!r} out of range")
    alphas = np.linspace(start, end, points)
    return [(float(a), float(1.0 - a)) for a in alphas]


@click.group()
def main():
    """Deterministic simulator for coherently controlled channel networks."""


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    """One named identity: ``distance(d, n)`` for dimension d and n lines.

    ``equal`` is the expected verdict: the row passes when
    ``(distance <= tol) == equal``.  ``label`` is formatted with d and n.
    """

    label: str
    distance: Callable[[int, int], float]
    equal: bool = True


def _erasing_channels(d: int) -> list:
    return [erasing_channel(d, j) for j in range(d)]


def _random_extensions(d: int) -> list:
    rng = np.random.default_rng(7)
    exts = []
    for l in range(d):
        a = rng.normal(size=d) + 1j * rng.normal(size=d)
        exts.append(vacuum_extend(erasing_channel(d, l), a / np.linalg.norm(a)))
    return exts


def _choice_vs_closed_form(d: int, extensions: list) -> float:
    choice = target_sector_restriction(controlled_choice(extensions), d)
    return channels_equal(choice, k_multiline(d, 1)).distance


def _noiseless_infidelity(d: int, n: int) -> float:
    """Worst infidelity of K^(N) over the phased GHZ family of N targets and control.

    K^(N) acts through its closed action, ``apply_coincidence``; tier-1 tests
    it against the Kraus list of ``k_multiline``, its oracle, bit for bit.
    """
    labels = tuple(f"B{i}" for i in range(1, n + 1)) + ("C",)
    layout = SubsystemLayout((d,) * (n + 1), labels)
    worst = 0.0
    for x in range(d):
        g = ghz_ket(d, n + 1, x)
        out = apply_coincidence(g.density(layout), labels)
        worst = max(worst, 1.0 - fidelity_with_ket(out, g))
    return worst


def _round_trip_distance(d: int, n: int) -> float:
    dec = t_decomposition(coincidence_extensions(d))
    target = target_sector_restriction(controlled_choice(coincidence_extensions(d)), d)
    return channels_equal(dec.reconstructed_channel(), target).distance


# the identities `verify` certifies; the acceptance tests call the same rows
CHECKS = {
    "order": Check(
        "closed form vs order enumeration (d={d})",
        lambda d, n: channels_equal(
            cyclic_switch(_erasing_channels(d)), k_multiline(d, 1)
        ).distance,
    ),
    "choice": Check(
        "coincidence: choice vs order (d={d})",
        lambda d, n: _choice_vs_closed_form(d, coincidence_extensions(d)),
    ),
    "random-choice": Check(
        "random extensions: choice differs from order (d={d})",
        lambda d, n: _choice_vs_closed_form(d, _random_extensions(d)),
        equal=False,
    ),
    "noiseless": Check("noiseless subspace preserved (d={d}, all phases)", _noiseless_infidelity),
    "round-trip": Check("rank-one decomposition round-trip (d={d})", _round_trip_distance),
    "multiline-enumeration": Check(
        "multiline closed form vs enumeration (d={d}, N={n})",
        lambda d, n: channels_equal(
            k_multiline(d, n), k_multiline_enumerated(_erasing_channels(d), n)
        ).distance,
    ),
    "multiline-noiseless": Check(
        "multiline noiseless subspace (d={d}, N={n})", _noiseless_infidelity
    ),
}


@main.command()
@_d_option(help="Qudit dimension (>= 2).")
@click.option("--n", type=int, default=None, help="Also check N transmission lines.")
@click.option(
    "--choice-amplitudes",
    type=click.Choice(["coincidence", "random-seeded"]),
    default="coincidence",
    help="Extension amplitudes for the order/choice comparison.",
)
@_policy_options
def verify(ctx, d, n, choice_amplitudes):
    """Numerically certify the channel identities for one dimension."""
    if d < 2:
        raise click.UsageError("--d must be at least 2")
    if n is not None and n < 1:
        raise click.UsageError("--n must be at least 1")
    tolerance = policy.spectral_tol

    choice = "choice" if choice_amplitudes == "coincidence" else "random-choice"
    rows = [("order", 1), (choice, 1), ("noiseless", 1), ("round-trip", 1)]
    if n is not None:
        if d == 2 and n <= 2:
            rows.append(("multiline-enumeration", n))
        rows.append(("multiline-noiseless", n))
    try:
        guard_dimension(d * d, "verification")
        if n is not None:
            guard_dimension(d ** (n + 1), "multiline verification")
        results = [(CHECKS[name], lines, CHECKS[name].distance(d, lines)) for name, lines in rows]
    except ResourceGuardError as exc:
        raise click.UsageError(str(exc))

    failed = 0
    for check, lines, dist in results:
        ok = (dist <= tolerance) == check.equal
        verdict, label = "PASS" if ok else "FAIL", check.label.format(d=d, n=lines)
        click.echo(f"[{verdict}] {label}: distance {dist:.3e} (tol {tolerance:.1e})")
        failed += 0 if ok else 1
    click.echo(f"{len(results) - failed}/{len(results)} checks passed")
    ctx.exit(0 if failed == 0 else _EXIT_CHECK_FAILED)


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


@main.command()
@click.argument(
    "protocol", type=click.Choice(["private-dit", "bipartite", "ghz", "fixed-baseline"])
)
@_d_option(help="Qudit dimension (>= 2).")
@click.option("--x", type=int, default=0, help="Message value for private-dit.")
@_receivers_option
@click.option("--resource", type=str, default="max", help="max | schmidt:l0,l1,... | file:PATH")
@click.option(
    "--encodings",
    type=click.Choice(["dfs-phase", "classical-flag"]),
    default="dfs-phase",
    help="Encoding family for fixed-baseline.",
)
@click.option("--out", type=str, default=None, help="Output file path.")
@click.option("--format", type=click.Choice(["json", "csv"]), default="json")
@_policy_options
def run(ctx, protocol, d, x, receivers, resource, encodings, out, format):
    """Run one protocol and emit its transcript or metric row."""
    if d < 2:
        raise click.UsageError("--d must be at least 2")

    try:
        if protocol == "fixed-baseline":
            enc = dfs_phase_encodings(d) if encodings == "dfs-phase" else classical_flag_encodings(d)
            report = fixed_configuration_baseline(d, enc)
            for key in sorted(report):
                click.echo(f"{key}: {serialize.fmt(report[key])}")
            if out:
                serialize.write_text(
                    out,
                    serialize.json_chunks(
                        {"schema": serialize.SCHEMA, "header": {"protocol": protocol, "d": d,
                                                                "encodings": encodings},
                         "metrics": serialize._plain(report)}
                    ),
                )
            ctx.exit(0)

        res = _parse_resource(resource, d)
        privacy = None
        if protocol == "private-dit":
            if not 0 <= x < d:
                raise ValueError(f"message {x} out of range for dimension {d}")
            ensemble = [run_private_dit(d, msg, res) for msg in range(d)]
            transcript = ensemble[x]
            privacy = privacy_report(ensemble)
        elif protocol == "bipartite":
            transcript = run_bipartite_establishment(d, res)
        else:
            transcript = run_ghz_distribution(d, receivers, res)
    except ValueError as exc:  # a ResourceGuardError too
        raise click.UsageError(str(exc))

    for key in sorted(transcript.metrics):
        val = transcript.metrics[key]
        if isinstance(val, (int, float, bool)):
            click.echo(f"{key}: {serialize.fmt(val)}")
    if privacy is not None:
        click.echo(
            f"privacy_max_trace_distance: {serialize.fmt(privacy['max_pairwise_trace_distance'])}"
        )
        click.echo(
            f"privacy_max_outcome_tv: {serialize.fmt(privacy['max_pairwise_outcome_tv'])}"
        )
    if out:
        if format == "json":
            payload = serialize.transcript_to_dict(
                transcript, header={"command": "run", "protocol": protocol}
            )
            if privacy is not None:
                payload["privacy"] = {
                    "max_pairwise_trace_distance": privacy["max_pairwise_trace_distance"],
                    "max_pairwise_outcome_tv": privacy["max_pairwise_outcome_tv"],
                    "helstrom_errors": {
                        f"{i},{j}": v for (i, j), v in privacy["helstrom_errors"].items()
                    },
                }
            serialize.write_text(out, serialize.json_chunks(payload))
        else:
            cols, row = serialize.transcript_metric_row(transcript)
            serialize.write_text(out, [",".join(cols) + "\n", ",".join(row) + "\n"])
        click.echo(f"wrote {out}")
    ctx.exit(0)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


@main.command()
@click.argument("protocol", type=click.Choice(["private-dit", "bipartite", "ghz"]))
@_d_option(help="Qudit dimension (only 2 for --alpha grids).")
@click.option("--alpha", type=str, default="0:1:11", help="Grid START:END:POINTS.")
@_receivers_option
@click.option("--out", type=str, default=None, help="Output file path.")
@_policy_options
def sweep(ctx, protocol, d, alpha, receivers, out):
    """Sweep a protocol metric over resource Schmidt spectra (CSV output)."""
    if d != 2:
        raise click.UsageError("--alpha grids parameterize two-level spectra; use --d 2")
    spectra = _parse_alpha(alpha)
    try:
        table = necessity_sweep(protocol, d, spectra, n_receivers=receivers)
    except ValueError as exc:  # a ResourceGuardError too
        raise click.UsageError(str(exc))

    lines = serialize.sweep_csv_lines(table)
    if out:
        serialize.write_text(out, [ln + "\n" for ln in lines])
        click.echo(f"wrote {out}")
    else:
        for ln in lines:
            click.echo(ln)
    s = table["summary"]
    click.echo(
        f"perfect rows: {len(s['perfect_rows'])}; only at uniform spectrum: "
        f"{s['perfect_only_at_uniform']}; monotone in entanglement: "
        f"{s['monotone_in_entanglement']}"
    )
    ctx.exit(0)


if __name__ == "__main__":
    main()
