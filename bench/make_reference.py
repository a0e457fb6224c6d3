"""Regenerate ``reference/sweep.csv``, the records the sweep workload's
set-up compares against.  Run from the root of a checkout:

    python3 bench/make_reference.py

Do this only in a change that redefines the benchmark, never in one that
claims a gain: the reference is what keeps the oracle honest.
"""

import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import SWEEP_REFERENCE, Sweep  # noqa: E402

with tempfile.TemporaryDirectory() as tmp:
    shutil.copyfile(Sweep(0, Path(tmp)).reference_run(), SWEEP_REFERENCE)
print(f"wrote {SWEEP_REFERENCE}")
