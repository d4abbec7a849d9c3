"""The timed loops behind run.py: end-to-end and traced.

Each run steps one Session in this process: frame 0 and the warm-up frames
untimed, then whole PERIOD-frame blocks, each Session.step timed on its
own, until the run's seconds have passed and at least FIXED_FRAMES frames
are timed.
"""

from __future__ import annotations

import gc
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from privis.bench import Session

from layers import HOOKS, layer_metrics
from tracer import Profile, Tracer
from workloads import FIXED_FRAMES, PERIOD, WARMUP_FRAMES, Workload

HERE = Path(__file__).resolve().parent
# Cold starts are probed before the warm-up and again after the timed loop,
# so the median spans the whole run rather than the machine's state at its start.
SETUP_PROBES_BEFORE, SETUP_PROBES_AFTER = 4, 3
PROBE_TIMEOUT_S = 120


def _step_times(session, first: int, count: int, tracer=None, profile=None) -> list[float]:
    """Wall seconds of Session.step for frames first..first+count-1.

    The caller turns automatic garbage collection off; generation 0 is
    collected between frames, outside the timing.
    """
    clock = time.perf_counter
    out = []
    for i in range(first, first + count):
        if tracer is None:
            t0 = clock()
            session.step(i)
            t1 = clock()
        else:
            t0 = clock()
            tracer.begin(i)
            session.step(i)
            spans, counts = tracer.end()
            t1 = clock()
            profile.add(spans, counts)
        out.append(t1 - t0)
        gc.collect(0)
    return out


def _setup_seconds(name: str, seed: int, probes: int) -> list[float]:
    """Cold-start seconds of ``probes`` fresh interpreters, one after another."""
    out = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
            cwd=HERE.parent,
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=True,
        )
        out.append(float(proc.stdout.split()[-1]))
    return out


def _p95(values: list[float]) -> float:
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def _fixed_figures(result) -> dict:
    """Deterministic figures over the first FIXED_FRAMES timed frames."""
    lo, hi = WARMUP_FRAMES, WARMUP_FRAMES + FIXED_FRAMES
    summaries = result.summaries[lo:hi]
    expected = sum(s.cube_total for s in summaries)
    dropped = sum(s.dropped for s in summaries)
    windows = [w["mi_bits"] for w in result.leakage_windows if lo <= w["window_end_frame"] < hi]
    basis = f"frames {lo}-{hi - 1}"
    return {
        "wire_bytes_per_frame": (
            sum(r["bytes_sent"] for r in result.frame_rows[lo:hi]) / FIXED_FRAMES, "bytes/frame", basis,
        ),
        "cube_delivered_frac": (
            1.0 - dropped / expected, "fraction",
            f"{dropped} of {expected} cube-frames dropped (cube_drop_frac {dropped / expected:.6f}), {basis}",
        ),
        "cube_drop_frac": (dropped / expected, "fraction", f"{dropped}/{expected} cube-frames, {basis}"),
        "leak_mi_bits": (statistics.fmean(windows), "bit", f"mean over {len(windows)} leakage windows, {basis}"),
    }


def end_to_end(workload: Workload, seed: int, seconds: float) -> tuple[dict, int]:
    """End-to-end metrics with tracing off; returns (metrics, timed frames)."""
    setup = _setup_seconds(workload.name, seed, SETUP_PROBES_BEFORE)
    session = Session(workload.config(seed))
    for i in range(WARMUP_FRAMES):
        session.step(i)
    times: list[float] = []
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or len(times) < FIXED_FRAMES:
            times += _step_times(session, WARMUP_FRAMES + len(times), PERIOD)
            if len(times) == FIXED_FRAMES:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wall = time.perf_counter() - start
    finally:
        gc.enable()
    setup += _setup_seconds(workload.name, seed, SETUP_PROBES_AFTER)
    ms = [t * 1e3 for t in times]
    n = len(ms)
    metrics = {
        "frame_ms.p50": (statistics.median(ms), "ms", f"{n} frames"),
        "frame_ms.p95": (_p95(ms), "ms", f"{n} frames"),
        "frames_per_s": (n / wall, "1/s", f"{n} frames in {wall:.2f} s"),
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} fresh processes"),
        "peak_rss_mb": (peak_rss_mb, "MB", f"set-up, warm-up and {FIXED_FRAMES} timed frames"),
    }
    fixed = _fixed_figures(session.result)
    for name in ("wire_bytes_per_frame", "cube_delivered_frac", "leak_mi_bits"):
        metrics[name] = fixed[name]
    return metrics, n


def traced(workload: Workload, seed: int, seconds: float) -> tuple[dict, int]:
    """Per-layer metrics from a traced run; returns (metrics, timed frames)."""
    tracer = Tracer(HOOKS)
    setup, steady = Profile(), Profile()
    session = Session(workload.config(seed))
    tracer.install()
    try:
        _step_times(session, 0, 1, tracer, setup)
    finally:
        tracer.remove()
    for i in range(1, WARMUP_FRAMES):
        session.step(i)

    # Untraced and traced blocks alternate, so drift hits both alike.
    plain: list[float] = []
    spanned: list[float] = []
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or len(plain) + len(spanned) < FIXED_FRAMES:
            plain += _step_times(session, WARMUP_FRAMES + len(plain) + len(spanned), PERIOD)
            tracer.install()
            try:
                spanned += _step_times(session, WARMUP_FRAMES + len(plain) + len(spanned), PERIOD, tracer, steady)
            finally:
                tracer.remove()
    finally:
        gc.enable()
    basis = f"{steady.frames} traced frames"
    metrics = {name: (value, unit, basis) for name, (value, unit) in layer_metrics(steady, setup).items()}
    overhead = statistics.median(spanned) / statistics.median(plain) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "fraction", f"p50 of {len(spanned)} traced vs {len(plain)} untraced frames")
    metrics["cube_drop_frac"] = _fixed_figures(session.result)["cube_drop_frac"]
    return metrics, len(plain) + len(spanned)
