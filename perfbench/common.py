"""Process set-up shared by ``run.py`` and its set-up probe.

Nothing here imports numpy: :func:`prepare_process` must run first, because
OpenBLAS reads its thread count once, when numpy loads it.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One BLAS thread (at most nproc on any machine) keeps run-to-run spread low
# and leaves the second core of a small machine to the rest of the system.
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

WARMUP_ARGS = ("run", "private-dit", "--d", "2", "--x", "0")


def prepare_process() -> None:
    """Pin BLAS threads, drop the guard override and import from ``src/``.

    Exits with status 2 when the checkout holds no library sources, so a
    copy of the benchmark alone never reports a result.
    """
    if not (SRC / "qswitch_lab" / "cli.py").is_file():
        print(f"perfbench: no qswitch_lab sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    # The guard override would change the policy the CLI installs.
    os.environ.pop("QSWITCH_MAX_DIM", None)
    sys.path.insert(0, str(SRC))


def check_import_origin() -> None:
    """Exit with status 2 unless ``qswitch_lab`` was imported from ``src/``."""
    import qswitch_lab

    origin = Path(qswitch_lab.__file__).resolve()
    if not origin.is_relative_to(SRC):
        print(f"perfbench: qswitch_lab imported from {origin}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)


def invoke_cli(args) -> tuple[int, str]:
    """Run one ``qswitch-lab`` command in this process: (exit code, stdout)."""
    from qswitch_lab.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main.main(list(args), prog_name="qswitch-lab", standalone_mode=False)
    return int(code or 0), buf.getvalue()


def warm_up() -> None:
    """First call into the library: loads lazy code paths and BLAS kernels."""
    code, out = invoke_cli(WARMUP_ARGS)
    if code != 0 or "success_probability: 1" not in out:
        raise RuntimeError(f"warm-up call failed (exit {code}): {out!r}")
