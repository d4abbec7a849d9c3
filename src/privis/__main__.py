"""The ``privis-bench`` command line: one mode's session, or the lockstep
three-mode comparison with its latency ordering check.

    python -m privis [--mode noenc|uniform|privis] [--out DIR] ...
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .bench import (
    MODES,
    RunConfig,
    SessionResult,
    check_csv_headers,
    compare_modes,
    default_scene,
    run_session,
    write_session_csvs,
)
from .errors import ConfigError, OrderingError, ValidationError
from .leakage import LeakageConfig
from .netw import NetConfig
from .partition import PartitionConfig
from .policy import PolicyConfig
from .saliency import SaliencyConfig
from .shaping import ShapingConfig


def _build_config(args, mode: str) -> RunConfig:
    scene = default_scene(seed=args.scene_seed, frames=args.frames, points=args.points)
    if args.sensitive_fraction is not None:
        scene = replace(scene, sensitive_fraction=args.sensitive_fraction)
    if args.root_key is None:
        # reproducible provisioning without leaking keys into shell history
        args.root_key = os.environ.get("PRIVIS_ROOT_KEY")
    return RunConfig(
        mode=mode,
        scene=scene,
        partition=PartitionConfig(target_cubes=args.target_cubes),
        saliency=replace(SaliencyConfig(), alpha=args.alpha),
        policy=replace(PolicyConfig(), theta=args.theta, interval_low=args.rekey_low),
        shaping=replace(ShapingConfig(), rng_seed=args.scene_seed),
        net=NetConfig(rtt_ms=args.rtt_ms, loss_prob=args.loss, seed=args.scene_seed),
        leakage=replace(LeakageConfig(), epsilon=args.epsilon),
        root_key_hex=args.root_key,
    )


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(
        prog="privis-bench",
        description="Run the secure volumetric transport benchmark "
        "(omit --mode to compare all three configurations).",
    )
    p.add_argument("--mode", choices=MODES, default=None)
    p.add_argument("--scene-seed", type=int, default=7)
    p.add_argument("--frames", type=int, default=60)
    p.add_argument("--points", type=int, default=80_000)
    p.add_argument("--sensitive-fraction", type=float, default=None)
    p.add_argument("--alpha", type=float, default=0.5)
    p.add_argument("--theta", type=float, default=0.6)
    p.add_argument("--epsilon", type=float, default=0.25)
    p.add_argument("--target-cubes", type=int, default=64)
    p.add_argument("--rekey-low", type=int, default=6, metavar="N")
    p.add_argument("--rtt-ms", type=float, default=15.0)
    p.add_argument("--loss", type=float, default=0.0)
    p.add_argument("--out", default=None, metavar="DIR")
    p.add_argument("--root-key", default=None, metavar="HEX")
    args = p.parse_args(argv)
    try:
        cfg = _build_config(args, args.mode or "privis")
    except (ConfigError, ValidationError) as e:
        p.error(str(e))
    if args.out:  # a CSV from another build is refused before the first frame
        try:
            check_csv_headers(args.out)
        except ConfigError as e:
            print(f"{p.prog}: error: {e}", file=sys.stderr)
            return 2

    if args.mode is not None:
        comparison = None
        results = {args.mode: run_session(cfg)}
    else:
        comparison = compare_modes(cfg)
        results = comparison.results
    _print_breakdown(results)
    if comparison is not None:
        print()
        print(f"privis - noenc : {comparison.privis_minus_noenc:8.3f} ms")
        print(f"uniform - noenc: {comparison.uniform_minus_noenc:8.3f} ms")
    if args.out:
        try:
            write_session_csvs(results.values(), args.out)
        except ConfigError as e:
            print(f"{p.prog}: error: {e}", file=sys.stderr)
            return 2
    if comparison is None:
        return 0
    try:
        comparison.require_ordering()
    except OrderingError as e:
        print(f"ORDERING VIOLATION: {e}", file=sys.stderr)
        return 1
    print("ordering ok: noenc <= privis <= uniform")
    return 0


def _print_breakdown(results: dict[str, SessionResult]) -> None:
    means = {m: r.mean.as_dict() for m, r in results.items()}
    print(f"{'component':<22}" + "".join(f"{m:>12}" for m in means))
    for stage in next(iter(means.values())):
        vals = "".join(f"{means[m][stage]:12.3f}" for m in means)
        print(f"{stage:<22}{vals}")


if __name__ == "__main__":
    sys.exit(main())
