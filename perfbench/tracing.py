"""Span tracing of the library's layers, installed from outside ``src/``.

:meth:`Tracer.install` wraps every public function of the layer modules
(``linalg``, ``channels``, ``combinators``, ``metrics``, ``protocols``,
``serialize``) under every name it is bound to -- so ``protocols.channel_apply``
is traced as ``channels.apply`` -- plus the two validators
``DensityMatrix.__post_init__`` (``linalg.dm_check``) and
``KrausChannel.__post_init__`` (``channels.kraus_check``), and the
benchmark's in-process CLI call (``cli.main``).  :meth:`Tracer.uninstall`
puts the originals back, so untraced passes run the library untouched.

Each span keeps its name, start, end, parent and one "work" figure computed
from the call's operands; the per-layer metrics are derived from the spans
when a pass ends (:meth:`Tracer.layer_metrics`).
"""

from __future__ import annotations

import fnmatch
import functools
import importlib
import os
import time
import types
from array import array

import common

LAYERS = ("linalg", "channels", "combinators", "metrics", "protocols", "serialize", "cli")

# metric -> span-name patterns; the time of the outermost matching spans
# (a span nested in another span of the same set is not counted again).
TIME_METRICS = {
    "channels.apply_s": ("channels.apply",),
    "combinators.build_s": ("combinators.*",),
    "channels.kraus_check_s": ("channels.kraus_check",),
    "linalg.dm_check_s": ("linalg.dm_check",),
    "linalg.measure_s": ("linalg.projective_measure",),
    "linalg.unitary_s": ("linalg.apply_unitary",),
    "linalg.partial_trace_s": ("linalg.partial_trace",),
    "metrics.ggm_s": ("metrics.ggm", "metrics.bipartition_reports"),
    "metrics.distinguish_s": ("linalg.trace_distance", "metrics.helstrom_error",
                              "metrics.concurrence_2qubit", "metrics.mutual_information"),
    "serialize.encode_s": ("serialize.transcript_to_dict", "serialize.density_to_dict",
                           "serialize.complex_pairs", "serialize.transcript_metric_row",
                           "serialize.sweep_csv_lines", "serialize.fmt"),
    "serialize.dumps_s": ("serialize.dumps_json",),
    "serialize.write_s": ("serialize.write_text",),
}
# metric -> (patterns, "calls" counts outermost spans | "work" sums their
# work figures, scale applied to the sum, unit)
COUNT_METRICS = {
    "channels.apply_calls": (("channels.apply",), "calls", 1, "count"),
    "channels.apply_gflop": (("channels.apply",), "work", 1e-9, "gflop-computed"),
    "combinators.builds": (("combinators.*",), "calls", 1, "count"),
    "combinators.kraus_mb": (("combinators.*",), "work", 1e-6, "MB-computed"),
    "linalg.dm_checks": (("linalg.dm_check",), "calls", 1, "count"),
    "metrics.ggm_cuts": (("metrics.bipartition_reports",), "work", 1, "count"),
    "serialize.bytes_out": (("serialize.write_text",), "work", 1, "bytes"),
}
# metric -> layer whose self time (span time not covered by child spans) it sums
SELF_METRICS = {"protocols.self_s": "protocols", "cli.self_s": "cli"}
# every metric layer_metrics reports, with its unit; trace.coverage is the
# root-span time of a pass over that pass's time
UNITS = {
    **dict.fromkeys(TIME_METRICS, "s"),
    **{metric: spec[3] for metric, spec in COUNT_METRICS.items()},
    **dict.fromkeys(SELF_METRICS, "s"),
    "trace.coverage": "ratio",
}


def _apply_flops(args, out) -> float:
    """Real flops of ``channels.apply``: per Kraus operator, two tensordots
    of m^3 r^2 complex multiply-adds (8 flops each), m the acted and r the
    spectator dimension."""
    ch, rho = args[0], args[1]
    m = ch.in_dim
    r = rho.dim // m
    return 16.0 * ch.n_kraus * m**3 * r**2


def _kraus_bytes(obj) -> float:
    """Dense storage of the Kraus operators built: n_kraus * dim^2 * 16 B."""
    from qswitch_lab.channels import ExtendedChannel, KrausChannel

    if isinstance(obj, KrausChannel):
        return float(obj.n_kraus * obj.in_dim * obj.out_dim * 16)
    if isinstance(obj, ExtendedChannel):
        return _kraus_bytes(obj.realized)
    if isinstance(obj, (list, tuple)):
        return sum(_kraus_bytes(o) for o in obj)
    return 0.0


WORK = {
    "channels.apply": _apply_flops,
    "combinators.*": lambda args, out: _kraus_bytes(out),
    "metrics.bipartition_reports": lambda args, out: float(len(out)),
    "serialize.write_text": lambda args, out: float(os.path.getsize(args[0])),
}


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self._stack = [-1]

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, span_name: str):
        nid = self._name_ids.setdefault(span_name, len(self._name_ids))
        if nid == len(self.span_names):
            self.span_names.append(span_name)
        work = next((w for pat, w in WORK.items() if fnmatch.fnmatchcase(span_name, pat)), None)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.name_id)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.work.append(0.0)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()
            if work is not None:
                self.work[idx] = work(args, out)
            return out

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"qswitch_lab.{layer}") for layer in LAYERS}
        wrappers = {}
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                layer = obj.__module__.rpartition(".")[2]
                if layer not in modules or obj.__name__.startswith("_"):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj, f"{layer}.{obj.__name__}")
                self._patch(module, attr, wrappers[obj])
        dm = modules["linalg"].DensityMatrix
        kc = modules["channels"].KrausChannel
        self._patch(dm, "__post_init__", self._wrap(dm.__post_init__, "linalg.dm_check"))
        self._patch(kc, "__post_init__", self._wrap(kc.__post_init__, "channels.kraus_check"))
        self._patch(common, "invoke_cli", self._wrap(common.invoke_cli, "cli.main"))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- derivation --------------------------------------------------------

    def span_summary(self) -> dict[str, dict]:
        """Calls, total and self seconds per span name.

        Self time is a span's duration minus that of its child spans.
        """
        n = len(self.name_id)
        child_time = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child_time[self.parent[i]] += self.end[i] - self.start[i]
        summary = {}
        for i in range(n):
            dur = self.end[i] - self.start[i]
            s = summary.setdefault(self.span_names[self.name_id[i]],
                                   {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            s["calls"] += 1
            s["total_s"] += dur
            s["self_s"] += dur - child_time[i]
        return summary

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last reset."""
        groups = list(TIME_METRICS.items()) + [(m, spec[0]) for m, spec in COUNT_METRICS.items()]
        # bit g of masks[name id] is set when the span name belongs to group g
        masks = [
            sum(1 << g for g, (_, pats) in enumerate(groups)
                if any(fnmatch.fnmatchcase(name, p) for p in pats))
            for name in self.span_names
        ]
        n = len(self.name_id)
        inside = [0] * n  # groups open at or above each span
        totals = [0.0] * len(groups)
        calls = [0] * len(groups)
        works = [0.0] * len(groups)
        root_time = 0.0
        for i in range(n):  # parents are recorded before their children
            p = self.parent[i]
            dur = self.end[i] - self.start[i]
            own = masks[self.name_id[i]]
            outer = inside[p] if p >= 0 else 0
            inside[i] = outer | own
            if p < 0:
                root_time += dur
            new = own & ~outer
            g = 0
            while new:
                if new & 1:
                    totals[g] += dur
                    calls[g] += 1
                    works[g] += self.work[i]
                new >>= 1
                g += 1

        out = {}
        for g, (metric, _) in enumerate(groups):
            if metric in TIME_METRICS:
                out[metric] = totals[g]
            else:
                _, kind, scale, _ = COUNT_METRICS[metric]
                out[metric] = calls[g] if kind == "calls" else works[g] * scale
                if scale == 1:
                    out[metric] = int(out[metric])
        summary = self.span_summary()
        for metric, layer in SELF_METRICS.items():
            out[metric] = sum(s["self_s"] for name, s in summary.items()
                              if name.startswith(layer + "."))
        out["trace.root_s"] = root_time
        return out
