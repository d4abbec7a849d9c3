"""The calls the traced run wraps and the per-layer metrics made from them.

Each hook wraps a name where the pipeline looks it up: the functions
``privis.bench`` imports, ``partition_frame`` inside ``privis.partition``
(called from ``reuse_or_repartition``), ``replay_filter``, ``open_cube``
and ``derive_key`` inside ``privis.client``, ``derive_key`` inside
``privis.keyring``, and the methods ``Client.on_datagram``,
``Client.admit`` and ``KeyRing.key_for_frame``.
"""

from __future__ import annotations

from collections import Counter

import privis.bench as bench
import privis.client as client
import privis.keyring as keyring
import privis.partition as partition
from privis.client import Client, HeldOver
from privis.keyring import KeyRing

from tracer import ROOT_SPAN, Hook, Profile


def _cubes(c: Counter, args, kwargs, result) -> None:
    c["partition.cubes"] += len(result.cubes)


def _downgrades(c: Counter, args, kwargs, result) -> None:
    before, after = args[0], result[0]
    c["policy.downgrades"] += sum(int(p.level) - int(q.level) for (_, _, p), (_, _, q) in zip(before, after))


def _sealed(c: Counter, args, kwargs, result) -> None:
    plain = args[0]
    c["seal.bytes"] += len(plain.geometry) + len(plain.attributes)


def _opened(c: Counter, args, kwargs, result) -> None:
    sealed = args[0]
    c["seal.open_bytes"] += len(sealed.ciphertext) + len(sealed.plain_attributes)


def _padded(c: Counter, args, kwargs, result) -> None:
    c["shaping.pad_bytes"] += result - args[0]


def _packetized(c: Counter, args, kwargs, result) -> None:
    c["netw.datagrams"] += len(result)


def _transmitted(c: Counter, args, kwargs, result) -> None:
    sendlist, delivered = args[0], result[0]
    c["netw.wire_bytes"] += sum(d.wire_len for d, _t in sendlist)
    c["netw.lost"] += len(sendlist) - len(delivered)


def _filtered(c: Counter, args, kwargs, result) -> None:
    c["client.replay_rejects"] += not result


def _composed(c: Counter, args, kwargs, result) -> None:
    summary, resolved = result
    c["client.admitted"] += summary.admitted
    c["client.held"] += summary.held
    c["client.dropped"] += summary.dropped
    c["client.holdover_age"] += sum(
        out.frame_id - out.source_frame_id for out in resolved.values() if isinstance(out, HeldOver)
    )


def _estimated(c: Counter, args, kwargs, result) -> None:
    c["leakage.violations"] += result.violated


HOOKS = [
    Hook(bench, "generate_frame", "frame_io.generate"),
    Hook(bench, "partition_frame", "partition.cold", _cubes),
    Hook(partition, "partition_frame", "partition.cold"),
    Hook(bench, "reuse_or_repartition", "partition.reuse", _cubes),
    Hook(bench, "score_cubes", "saliency.score"),
    Hook(bench, "assign_policy", "policy.assign"),
    Hook(bench, "protection_level", "policy.assign"),
    Hook(bench, "enforce_budget", "policy.budget", _downgrades),
    Hook(KeyRing, "key_for_frame", "keyring.schedule"),
    Hook(keyring, "derive_key", "keyring.derive_tx"),
    Hook(bench, "serialize_cube", "seal.serialize"),
    Hook(bench, "seal_cube", "seal.seal", _sealed),
    Hook(bench, "flow_rng", "shaping"),
    Hook(bench, "pad_length", "shaping", _padded),
    Hook(bench, "shape_times", "shaping.times"),
    Hook(bench, "packetize", "netw.packetize", _packetized),
    Hook(bench, "transmit", "netw.transmit", _transmitted),
    Hook(Client, "on_datagram", "client.intake"),
    Hook(client, "replay_filter", "client.replay_filter", _filtered),
    Hook(Client, "admit", "client.admit"),
    Hook(client, "derive_key", "keyring.derive_rx"),
    Hook(client, "open_cube", "seal.open", _opened),
    Hook(bench, "frame_compose", "client.compose", _composed),
    Hook(bench, "trace_features", "leakage.features"),
    Hook(bench, "estimate_mi", "leakage.mi", _estimated),
    Hook(bench, "leakage_check_and_adapt", "leakage.adapt"),
]


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(p: Profile, setup: Profile) -> dict[str, tuple[float, str]]:
    """Per-frame layer figures over the steady traced frames ``p``.

    ``setup`` holds the traced frame 0, which adds its cold partition to
    ``partition.cold_ms`` so that figure exists on workloads that never
    repartition after set-up.
    """
    n = p.frames

    def ms(*names: str) -> float:
        return sum(p.incl[x] for x in names) / n * 1e3

    def per_frame(count: float) -> float:
        return count / n

    return {
        "partition.reuse_ms": (p.self_s["partition.reuse"] / n * 1e3, "ms"),
        "partition.cold_ms": (
            _div(p.incl["partition.cold"] + setup.incl["partition.cold"],
                 p.calls["partition.cold"] + setup.calls["partition.cold"]) * 1e3,
            "ms",
        ),
        "partition.repartitions": (per_frame(p.calls["partition.cold"]), "count/frame"),
        "partition.cubes": (per_frame(p.counts["partition.cubes"]), "count/frame"),
        "saliency.score_ms": (ms("saliency.score"), "ms"),
        "bench.step_self_ms": (p.self_s[ROOT_SPAN] / n * 1e3, "ms"),
        "policy.assign_ms": (ms("policy.assign"), "ms"),
        "policy.budget_ms": (ms("policy.budget"), "ms"),
        "policy.downgrades": (per_frame(p.counts["policy.downgrades"]), "count/frame"),
        "keyring.schedule_ms": (ms("keyring.schedule"), "ms"),
        "keyring.derives": (per_frame(p.calls["keyring.derive_tx"] + p.calls["keyring.derive_rx"]), "count/frame"),
        "seal.serialize_ms": (ms("seal.serialize"), "ms"),
        "seal.seal_ms": (ms("seal.seal"), "ms"),
        "seal.units": (per_frame(p.calls["seal.seal"]), "count/frame"),
        "seal.seal_mb_s": (_div(p.counts["seal.bytes"], p.incl["seal.seal"]) / 1e6, "MB/s"),
        "seal.open_ms": (ms("seal.open"), "ms"),
        "seal.open_mb_s": (_div(p.counts["seal.open_bytes"], p.incl["seal.open"]) / 1e6, "MB/s"),
        "shaping.ms": (ms("shaping", "shaping.times"), "ms"),
        "shaping.shaped_units": (per_frame(p.calls["shaping.times"]), "count/frame"),
        "shaping.pad_frac": (_div(p.counts["shaping.pad_bytes"], p.counts["netw.wire_bytes"]), "fraction"),
        "netw.packetize_ms": (ms("netw.packetize"), "ms"),
        "netw.datagrams": (per_frame(p.counts["netw.datagrams"]), "count/frame"),
        "netw.transmit_ms": (ms("netw.transmit"), "ms"),
        "netw.lost": (per_frame(p.counts["netw.lost"]), "count/frame"),
        "client.intake_us": (_div(p.incl["client.intake"], p.calls["client.intake"]) * 1e6, "us"),
        "client.replay_rejects": (per_frame(p.counts["client.replay_rejects"]), "count/frame"),
        "client.admit_ms": (ms("client.admit"), "ms"),
        "client.compose_ms": (ms("client.compose"), "ms"),
        "client.admitted": (per_frame(p.counts["client.admitted"]), "count/frame"),
        "client.held": (per_frame(p.counts["client.held"]), "count/frame"),
        "client.dropped": (per_frame(p.counts["client.dropped"]), "count/frame"),
        "client.holdover_age": (_div(p.counts["client.holdover_age"], p.counts["client.held"]), "frames"),
        "client.key_cache_hit_frac": (
            1.0 - _div(p.calls["keyring.derive_rx"], p.calls["client.admit"]),
            "fraction",
        ),
        "leakage.features_ms": (ms("leakage.features"), "ms"),
        "leakage.mi_ms": (_div(p.incl["leakage.mi"], p.calls["leakage.mi"]) * 1e3, "ms"),
        "leakage.windows": (per_frame(p.calls["leakage.mi"]), "count/frame"),
        "leakage.violations": (per_frame(p.counts["leakage.violations"]), "count/frame"),
        "frame_io.generate_ms": (ms("frame_io.generate"), "ms"),
    }
