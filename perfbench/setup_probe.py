"""One set-up sample: import numpy and ``qswitch_lab.cli``, make the warm-up call.

Run as a child of ``run.py``, once per sample, so that every sample starts
from a fresh interpreter.  Prints the elapsed seconds as its last line.
Interpreter start-up itself is not counted.
"""

import time

import common

common.prepare_process()
t0 = time.perf_counter()
import numpy  # noqa: E402,F401  (import time is part of the sample)
import qswitch_lab.cli  # noqa: E402,F401

common.check_import_origin()
common.warm_up()
print(repr(time.perf_counter() - t0))
