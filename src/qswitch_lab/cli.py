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

Flags may also be supplied through a flat JSON config file (``--config``);
explicit flags override file values.  The environment variable
``QSWITCH_MAX_DIM`` overrides the default resource guard, and ``--max-dim``
overrides both.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, fields
from typing import Callable

import click
import numpy as np

from . import serialize
from .channels import apply as channel_apply, channels_equal, erasing_channel, vacuum_extend
from .combinators import (
    coincidence_extensions,
    controlled_choice,
    cyclic_switch,
    k_multiline,
    k_multiline_enumerated,
    t_decomposition,
    target_sector_restriction,
)
from .linalg import fidelity_with_ket, ghz_ket, SubsystemLayout
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
_EXIT_CONFIG = 2


@dataclass(frozen=True)
class RunConfig:
    """Resolved configuration of one CLI invocation.

    Mirrors the flags one-to-one; values fall back to the flat JSON config
    file and then to the defaults below.  Serialization round-trips
    bit-exactly through :meth:`to_json` / :meth:`from_json`.
    """

    command: str
    d: int = 2
    x: int = 0
    receivers: int = 2
    resource: str = "max"
    encodings: str = "dfs-phase"
    alpha: str = "0:1:11"
    out: str | None = None
    format: str = "json"
    tol: float | None = None
    max_dim: int | None = None
    n: int | None = None
    choice_amplitudes: str = "coincidence"

    @classmethod
    def resolve(cls, command: str, config_path: str | None, **flags) -> "RunConfig":
        merged = _load_config(config_path)
        unknown = set(merged) - {f.name for f in fields(cls)}
        if unknown:
            raise click.UsageError(f"unknown config keys {sorted(unknown)}")
        for key, val in flags.items():
            if val is not None:
                merged[key] = val
        try:
            return cls(command=command, **merged)
        except TypeError as exc:
            raise click.UsageError(str(exc))

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        return cls(**json.loads(text))


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise click.UsageError(f"cannot read config file {path}: {exc}")
    if not isinstance(cfg, dict):
        raise click.UsageError("config file must hold a flat JSON object")
    return cfg


def _apply_guards(ctx: click.Context, cfg: RunConfig) -> None:
    """Apply the guard and tolerance overrides until the command ends."""
    saved = (policy.max_dim, policy.spectral_tol)

    def restore() -> None:
        policy.max_dim, policy.spectral_tol = saved

    ctx.call_on_close(restore)  # runs on return, on ctx.exit and on errors alike
    env = os.environ.get("QSWITCH_MAX_DIM")
    if env is not None:
        try:
            policy.max_dim = int(env)
        except ValueError:
            raise click.UsageError(f"QSWITCH_MAX_DIM must be an integer, got {env!r}")
    if cfg.max_dim is not None:
        policy.max_dim = int(cfg.max_dim)
    if cfg.tol is not None:
        policy.spectral_tol = float(cfg.tol)


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
            from .linalg import DensityMatrix

            dm = DensityMatrix(
                entries,
                SubsystemLayout(tuple(payload["dims"]), tuple(payload["labels"])),
            )
        except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
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
    """Worst infidelity of K^(N) over the phased GHZ family of N targets and control."""
    k = k_multiline(d, n)
    labels = tuple(f"B{i}" for i in range(1, n + 1)) + ("C",)
    layout = SubsystemLayout((d,) * (n + 1), labels)
    worst = 0.0
    for x in range(d):
        g = ghz_ket(d, n + 1, x)
        out = channel_apply(k, g.density(layout), labels)
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
@click.option("--d", "d", type=int, default=None, help="Qudit dimension (>= 2).")
@click.option("--n", "n_lines", type=int, default=None, help="Also check N transmission lines.")
@click.option(
    "--choice-amplitudes",
    type=click.Choice(["coincidence", "random-seeded"]),
    default=None,
    help="Extension amplitudes for the order/choice comparison.",
)
@click.option("--tol", type=float, default=None, help="Override the spectral tolerance.")
@click.option("--max-dim", "max_dim", type=int, default=None, help="Override the resource guard.")
@click.option("--config", "config_path", type=str, default=None, help="Flat JSON config file.")
@click.pass_context
def verify(ctx, d, n_lines, choice_amplitudes, tol, max_dim, config_path):
    """Numerically certify the channel identities for one dimension."""
    cfg = RunConfig.resolve(
        "verify",
        config_path,
        d=d,
        n=n_lines,
        choice_amplitudes=choice_amplitudes,
        tol=tol,
        max_dim=max_dim,
    )
    _apply_guards(ctx, cfg)
    d = int(cfg.d)
    n_lines = None if cfg.n is None else int(cfg.n)
    if d < 2:
        raise click.UsageError("--d must be at least 2")
    if n_lines is not None and n_lines < 1:
        raise click.UsageError("--n must be at least 1")
    tolerance = policy.spectral_tol

    choice = "choice" if cfg.choice_amplitudes == "coincidence" else "random-choice"
    rows = [("order", 1), (choice, 1), ("noiseless", 1), ("round-trip", 1)]
    if n_lines is not None:
        if d == 2 and n_lines <= 2:
            rows.append(("multiline-enumeration", n_lines))
        rows.append(("multiline-noiseless", n_lines))
    try:
        guard_dimension(d * d, "verification")
        if n_lines is not None:
            guard_dimension(d ** (n_lines + 1), "multiline verification")
        results = [(CHECKS[name], n, CHECKS[name].distance(d, n)) for name, n in rows]
    except ResourceGuardError as exc:
        raise click.UsageError(str(exc))

    failed = 0
    for check, n, dist in results:
        ok = (dist <= tolerance) == check.equal
        verdict, label = "PASS" if ok else "FAIL", check.label.format(d=d, n=n)
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
@click.option("--d", "d", type=int, default=None, help="Qudit dimension (>= 2).")
@click.option("--x", "x", type=int, default=None, help="Message value for private-dit.")
@click.option("--receivers", type=int, default=None, help="Receiver count for ghz.")
@click.option("--resource", type=str, default=None, help="max | schmidt:l0,l1,... | file:PATH")
@click.option(
    "--encodings",
    type=click.Choice(["dfs-phase", "classical-flag"]),
    default=None,
    help="Encoding family for fixed-baseline.",
)
@click.option("--out", "out_path", type=str, default=None, help="Output file path.")
@click.option("--format", "fmt_kind", type=click.Choice(["json", "csv"]), default=None)
@click.option("--tol", type=float, default=None)
@click.option("--max-dim", "max_dim", type=int, default=None)
@click.option("--config", "config_path", type=str, default=None)
@click.pass_context
def run(ctx, protocol, d, x, receivers, resource, encodings, out_path, fmt_kind, tol, max_dim, config_path):
    """Run one protocol and emit its transcript or metric row."""
    cfg = RunConfig.resolve(
        "run",
        config_path,
        d=d,
        x=x,
        receivers=receivers,
        resource=resource,
        encodings=encodings,
        out=out_path,
        format=fmt_kind,
        tol=tol,
        max_dim=max_dim,
    )
    _apply_guards(ctx, cfg)
    d = int(cfg.d)
    if d < 2:
        raise click.UsageError("--d must be at least 2")
    fmt_kind = cfg.format
    out_path = cfg.out

    try:
        if protocol == "fixed-baseline":
            family = cfg.encodings
            enc = dfs_phase_encodings(d) if family == "dfs-phase" else classical_flag_encodings(d)
            report = fixed_configuration_baseline(d, enc)
            for key in sorted(report):
                click.echo(f"{key}: {serialize.fmt(report[key])}")
            if out_path:
                serialize.write_text(
                    out_path,
                    serialize.dumps_json(
                        {"schema": serialize.SCHEMA, "header": {"protocol": protocol, "d": d,
                                                                "encodings": family},
                         "metrics": serialize._plain(report)}
                    ),
                )
            ctx.exit(0)

        res = _parse_resource(cfg.resource, d)
        privacy = None
        if protocol == "private-dit":
            x = int(cfg.x)
            if not 0 <= x < d:
                raise ValueError(f"message {x} out of range for dimension {d}")
            ensemble = [run_private_dit(d, msg, res) for msg in range(d)]
            transcript = ensemble[x]
            privacy = privacy_report(ensemble)
        elif protocol == "bipartite":
            transcript = run_bipartite_establishment(d, res)
        else:
            transcript = run_ghz_distribution(d, int(cfg.receivers), res)
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
    if out_path:
        if fmt_kind == "json":
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
            serialize.write_text(out_path, serialize.dumps_json(payload))
        else:
            cols, row = serialize.transcript_metric_row(transcript)
            serialize.write_text(out_path, [",".join(cols), ",".join(row)])
        click.echo(f"wrote {out_path}")
    ctx.exit(0)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


@main.command()
@click.argument("protocol", type=click.Choice(["private-dit", "bipartite", "ghz"]))
@click.option("--d", "d", type=int, default=None, help="Qudit dimension (only 2 for --alpha grids).")
@click.option("--alpha", "alpha_spec", type=str, default=None, help="Grid START:END:POINTS.")
@click.option("--receivers", type=int, default=None)
@click.option("--out", "out_path", type=str, default=None)
@click.option("--tol", type=float, default=None)
@click.option("--max-dim", "max_dim", type=int, default=None)
@click.option("--config", "config_path", type=str, default=None)
@click.pass_context
def sweep(ctx, protocol, d, alpha_spec, receivers, out_path, tol, max_dim, config_path):
    """Sweep a protocol metric over resource Schmidt spectra (CSV output)."""
    cfg = RunConfig.resolve(
        "sweep",
        config_path,
        d=d,
        alpha=alpha_spec,
        receivers=receivers,
        out=out_path,
        tol=tol,
        max_dim=max_dim,
    )
    _apply_guards(ctx, cfg)
    d = int(cfg.d)
    if d != 2:
        raise click.UsageError("--alpha grids parameterize two-level spectra; use --d 2")
    spectra = _parse_alpha(cfg.alpha)
    try:
        table = necessity_sweep(protocol, d, spectra, n_receivers=int(cfg.receivers))
    except ValueError as exc:  # a ResourceGuardError too
        raise click.UsageError(str(exc))

    lines = serialize.sweep_csv_lines(table)
    out_path = cfg.out
    if out_path:
        serialize.write_text(out_path, lines)
        click.echo(f"wrote {out_path}")
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
