"""privis benchmark: per-frame latency, frame rate, bytes and delivery.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one fresh process each

Run from the root of a source checkout; privis is imported from ./src.
Each workload is a closed loop: one Session in one process on one thread,
frames stepped back to back. ``--trace 0`` reports the end-to-end metrics
with tracing off; ``--trace 1`` reports the per-layer metrics from a traced
run. Every run ends with an untimed verification pass (see verify.py), and
the last line of output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
A run whose gates fail prints ``"correct": false`` and exits with 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _fingerprint() -> str:
    import cryptography
    import numpy

    return (
        f"nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
        f"numpy={numpy.__version__} cryptography={cryptography.__version__}"
    )


def _expected_metrics(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(args) -> int:
    from measure import end_to_end, traced
    from verify import verify
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    print(f"env {_fingerprint()}")
    print(
        f"workload {workload.name} seed {args.seed}: closed loop, one session, one thread; "
        "gc off inside timed frames, generation 0 collected between frames"
    )
    measure = traced if args.trace else end_to_end
    metrics, timed = measure(workload, args.seed, args.seconds)
    v = verify(workload, args.seed)
    if args.trace:
        metrics["render_mismatch_frac"] = (
            v.render_mismatch_frac, "fraction", f"{v.mismatched_frames}/{v.frames} verified frames differ",
        )
    else:
        metrics["render_match_frac"] = (
            v.render_match_frac, "fraction",
            f"{v.matched_points}/{v.union_points} points over {v.frames} verified frames; "
            f"{v.mismatched_frames} frames differ (render_mismatch_frac {v.render_mismatch_frac:.6f})",
        )

    expected = _expected_metrics(args.trace)
    emitted = {name: unit for name, (_v, unit, _n) in metrics.items()}
    if emitted != expected:
        raise RuntimeError(f"metrics {emitted} do not match BENCHMARK.json {expected}")
    for name, (value, unit, basis) in metrics.items():
        print(f"metric {name:<28} {value:>14.6f} {unit:<12} ({basis})")
    print(f"output_digest {v.output_digest}")
    for problem in v.problems[:20]:
        print(f"GATE FAILED: {problem}")
    correct = v.failed_frames == 0
    print(json.dumps({
        "correct": correct,
        "attempted": timed + v.frames,
        "failed": v.failed_frames,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _n) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        status |= subprocess.run(cmd, cwd=ROOT).returncode
    return 1 if status else 0


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "privis" / "__init__.py").is_file():
        print(f"perfbench: no privis package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    try:
        return run_one(args)
    except Exception:
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1


if __name__ == "__main__":
    sys.exit(main())
