"""Time one cold start in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED

Prints the seconds from importing privis to the end of frame 0: Session
construction, scene-layout synthesis, the cold partition and the first key
derivations. Interpreter start-up is not included.
"""

import sys
import time
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

t0 = time.perf_counter()
sys.path.insert(0, SRC)
from privis.bench import Session  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

session = Session(WORKLOADS[sys.argv[1]].config(int(sys.argv[2])))
session.step(0)
print(time.perf_counter() - t0)
