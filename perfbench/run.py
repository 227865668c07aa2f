"""qswitch-lab benchmark: one workload, timed, checked, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload dense-protocols --seed 1 --seconds 36 --trace 0

``--trace 0`` reports the end-to-end metrics:

``run_ref``      wall time of one pass over the workload's operations, in
                 units of the :class:`Reference` kernel's time measured
                 between them: median over the passes of the run
``setup_s``      median over fresh interpreters of importing numpy and
                 ``qswitch_lab.cli`` and making the first (warm-up) call
``peak_rss_mb``  peak resident memory of this process
``ok_ratio``     operations that passed every check / operations attempted

``--trace 1`` alternates untraced and traced passes (see ``tracing.py``)
and reports the per-layer metrics: medians over the traced passes for
times, counters that must repeat exactly across traced passes,
``trace.overhead_ratio`` (median traced / untraced pass time) and
``trace.coverage`` (root-span time / pass time).

An operation fails if it raises, exits non-zero, fails its output check,
writes a file whose sha256 differs from the first pass, or leaves
``qswitch_lab.numeric.policy`` different from its defaults.  The last stdout
line is ``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the environment and the raw samples.  Problems go to stderr.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import common

# The keys of workloads.WORKLOADS, which can only be imported once numpy is.
WORKLOAD_NAMES = ("dense-protocols", "transcript-out", "sweep-small")
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 60
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2


def _git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = common.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": common.BLAS_THREADS,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


class Reference:
    """A fixed kernel timed between the operations of every pass, to factor
    out machine speed.

    On a shared machine the CPU alternates, over seconds to minutes, between
    phases up to 1.9x apart in speed (a busy sibling hyperthread or a lower
    clock, as other tenants' load rises and falls), slowing every kind of
    code.  The kernel mixes what the workloads spend their time on -- an
    interpreted loop, small numpy calls and a complex BLAS product -- and
    uses no qswitch_lab code, so a change to the library cannot move it.
    """

    SAMPLES_PER_GAP = 2

    def __init__(self):
        import numpy as np

        self._np = np
        self._small = np.ones((4, 4), dtype=complex)
        self._large = np.ones((96, 96), dtype=complex)

    def _once(self) -> float:
        np = self._np
        t0 = time.perf_counter()
        acc = 0
        for j in range(20000):
            acc += j * j
        for _ in range(200):
            np.kron(self._small, self._small).trace()
        for _ in range(5):
            self._large @ self._large
        return time.perf_counter() - t0

    def samples(self) -> list[float]:
        return [self._once() for _ in range(self.SAMPLES_PER_GAP)]


def _setup_samples() -> list[float]:
    """Set-up time of fresh interpreters, run one after another."""
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, str(probe)], cwd=common.ROOT, capture_output=True,
            text=True, timeout=SETUP_TIMEOUT_S, check=False,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        samples.append(float(done.stdout.splitlines()[-1]))
    return samples


class Runner:
    """Runs passes of one workload and tallies attempted and failed operations."""

    def __init__(self, make_pass):
        from qswitch_lab import numeric

        self._make_pass = make_pass
        self._numeric = numeric
        self._digests: dict[Path, str] = {}
        self.attempted = 0
        self.failed = 0

    def _policy_problems(self, when: str) -> list[str]:
        numeric = self._numeric
        if numeric.policy == numeric.NumericPolicy():
            return []
        leaked = repr(numeric.policy)
        # Restore the defaults so one leak does not fail every later operation.
        for name, value in vars(numeric.NumericPolicy()).items():
            setattr(numeric.policy, name, value)
        return [f"numeric.policy differs from its defaults {when} the call: {leaked}"]

    def _output_problems(self, op) -> list[str]:
        problems = []
        for path in op.outputs:
            try:
                data = path.read_bytes()
            except OSError as exc:
                problems.append(f"cannot read output {path.name}: {exc}")
                continue
            digest = hashlib.sha256(data).hexdigest()
            first = self._digests.get(path)
            if first is None:
                self._digests[path] = digest
                if op.check_file is not None:
                    problems += op.check_file(data)
            elif digest != first:
                problems.append(f"{path.name} sha256 {digest} differs from first pass {first}")
        return problems

    def run_pass(self, between=None) -> float:
        """One pass; returns the summed wall time of its operations.

        ``between()``, if given, runs untimed before each operation and after
        the last one.
        """
        gc.collect()
        total = 0.0
        for op in self._make_pass():
            if between is not None:
                between()
            self.attempted += 1
            problems = self._policy_problems("before")
            t0 = time.perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # an operation's failure is counted, not fatal
                elapsed = time.perf_counter() - t0
                problems.append(f"raised {type(exc).__name__}: {exc}")
            else:
                elapsed = time.perf_counter() - t0
                try:
                    problems += op.check(result) + self._output_problems(op)
                except Exception as exc:  # a malformed result fails its operation
                    problems.append(f"check raised {type(exc).__name__}: {exc}")
            total += elapsed
            problems += self._policy_problems("after")
            if problems:
                self.failed += 1
                print(f"perfbench: FAIL {op.name}: {'; '.join(problems)}", file=sys.stderr)
        if between is not None:
            between()
        return total


def repeat(seconds: float, min_rounds: int, one_round) -> None:
    """Calls ``one_round()`` until another call as long as the longest so far
    would end after ``seconds``."""
    longest = 0.0
    rounds = 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        one_round()
        longest = max(longest, time.perf_counter() - t0)
        rounds += 1
        if rounds >= min_rounds and time.perf_counter() - start + longest > seconds:
            return


def _end_to_end(runner: Runner, seconds: float, log: dict) -> dict:
    setup = _setup_samples()
    reference = Reference()
    passes: list[float] = []
    ratios: list[float] = []

    def timed_pass():
        ref_samples: list[float] = []
        passes.append(runner.run_pass(lambda: ref_samples.extend(reference.samples())))
        ratios.append(passes[-1] / statistics.median(ref_samples))

    repeat(seconds, MIN_PASSES, timed_pass)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    log.update(run_s_samples=passes, run_ref_samples=ratios, setup_s_samples=setup)
    ok = (runner.attempted - runner.failed) / runner.attempted
    return {
        "run_ref": {"value": statistics.median(ratios), "unit": "ref"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        "ok_ratio": {"value": ok, "unit": "ratio"},
    }


def _per_layer(runner: Runner, seconds: float, log: dict) -> tuple[dict, list[str]]:
    """Untraced and traced passes, alternating, so both see the same machine."""
    import tracing

    tracer = tracing.Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    per_pass = []

    def pair():
        untraced.append(runner.run_pass())
        tracer.install()
        try:
            traced.append(runner.run_pass())
        finally:
            tracer.uninstall()
        layers = tracer.layer_metrics()
        layers["trace.coverage"] = layers.pop("trace.root_s") / traced[-1]
        per_pass.append(layers)
        log.setdefault("spans_first_traced_pass", tracer.span_summary())
        tracer.reset()

    repeat(seconds, MIN_TRACED_PAIRS, pair)
    log.update(untraced_run_s_samples=untraced, traced_run_s_samples=traced)

    problems = []
    metrics = {}
    for name, unit in tracing.UNITS.items():
        values = [p[name] for p in per_pass]
        if name in tracing.COUNT_METRICS:
            if len(set(values)) != 1:
                problems.append(f"counter {name} differs across traced passes: {values}")
            value = values[0]
        else:
            value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
    metrics["trace.overhead_ratio"] = {
        "value": statistics.median(traced) / statistics.median(untraced), "unit": "ratio"}
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    common.prepare_process()
    import numpy  # noqa: F401
    import qswitch_lab.cli  # noqa: F401

    common.check_import_origin()
    common.warm_up()
    import workloads

    log = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
           "env": _environment()}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=common.ROOT) as tmp:
        make_pass = workloads.WORKLOADS[args.workload](random.Random(args.seed), Path(tmp))
        runner = Runner(make_pass)
        if args.trace:
            metrics, problems = _per_layer(runner, args.seconds, log)
        else:
            metrics, problems = _end_to_end(runner, args.seconds, log), []
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    log.update(attempted=runner.attempted, failed=runner.failed)
    print(json.dumps({"perfbench_log": log}, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0 and not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
