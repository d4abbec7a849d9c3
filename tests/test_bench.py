import csv
import gc
import hashlib
import os
import statistics
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import privis.bench as bench
from privis.bench import (
    MODES,
    RunConfig,
    Session,
    _PlainCodec,
    compare_modes,
    default_scene,
    leakage_scene,
    run_session,
    write_session_csvs,
)
from privis.__main__ import main
from privis.client import Client
from privis.errors import ConfigError
from privis.frame_io import SceneSpec, generate_frame
from privis.keyring import KeyEpoch, RootKey, derive_key
from privis.netw import FRAG_HEADER_LEN, Datagram, NetConfig, packetize
from privis.partition import CubeId
from privis.policy import ProtectionLevel, ProtectionPolicy, Scope
from privis.seal import CubePlaintext, seal_cube
from privis.shaping import ShapingConfig

SMALL = SceneSpec(seed=7, frame_count=8, points_per_frame=8000, sensitive_fraction=0.2, motion_amplitude=0.1)
ROOT_HEX = "f0" * 32


def small_cfg(mode="privis", **kw):
    return RunConfig(mode=mode, scene=SMALL, root_key_hex=ROOT_HEX, **kw)


NON_TIMING = [
    "mode",
    "frame",
    "cubes",
    "boundary_epoch",
    "changed_points",
    "rebuilt_cubes",
    "rekeys",
    "shaped_cubes",
    "sent_units",
    "datagrams_sent",
    "bytes_sent",
    "admitted",
    "held",
    "dropped",
    "point_total",
    "theta",
]


@pytest.mark.parametrize("mode", MODES)
def test_run_deterministic_except_wall_clock(mode):
    a = run_session(small_cfg(mode, keep_units=True))
    b = run_session(small_cfg(mode, keep_units=True))
    for ra, rb in zip(a.frame_rows, b.frame_rows):
        for col in NON_TIMING:
            assert ra[col] == rb[col], col
    # shaped traffic identical too
    assert [(r.cube_id, r.base_len, r.padded_len, r.send_times) for r in a.unit_records] == [
        (r.cube_id, r.base_len, r.padded_len, r.send_times) for r in b.unit_records
    ]
    assert a.mi_samples == b.mi_samples


def test_mode_content_equivalence_on_lossless_channel():
    """Rendered content (fresh or held-over) is identical across modes on
    every frame of a lossless run."""
    digests = {}
    for mode in MODES:
        r = run_session(small_cfg(mode, content_digests=True))
        digests[mode] = r.content_digest_by_frame
    for i in range(SMALL.frame_count):
        assert digests["noenc"][i] == digests["uniform"][i] == digests["privis"][i], f"frame {i}"


def test_privis_sends_fewer_bytes_than_uniform():
    up = run_session(small_cfg("uniform"))
    pv = run_session(small_cfg("privis"))
    assert sum(r["bytes_sent"] for r in pv.frame_rows[1:]) < sum(
        r["bytes_sent"] for r in up.frame_rows[1:]
    )


def test_conservation_every_frame_all_modes():
    for mode in MODES:
        r = run_session(small_cfg(mode))
        for row in r.frame_rows:
            expected = 1 if mode == "uniform" else row["cubes"]
            assert row["admitted"] + row["held"] + row["dropped"] == expected


def test_startup_validation_rejects_jitter_over_budget():
    with pytest.raises(ConfigError):
        run_session(small_cfg(shaping=ShapingConfig(jitter_max_ms=30.0, mtp_budget_ms=20.0)))


def test_startup_validation_rejects_unknown_mode():
    with pytest.raises(ConfigError):
        run_session(replace(small_cfg(), mode="nonsense"))


def test_uniform_mode_single_unit_per_frame():
    r = run_session(small_cfg("uniform"))
    assert all(row["sent_units"] == 1 for row in r.frame_rows)
    assert all(row["datagrams_sent"] > 1 for row in r.frame_rows)


def test_noenc_never_seals_or_opens():
    r = run_session(small_cfg("noenc"))
    assert all(row["encryption_ms"] == 0.0 for row in r.frame_rows)
    assert all(row["decryption_ms"] == 0.0 for row in r.frame_rows)


def test_plain_units_that_do_not_parse_are_logged_and_dropped():
    """A plain unit is a u32 point count and 16 bytes per point, exactly:
    a short unit, a 1-byte unit and one with trailing bytes are each logged
    as malformed at the datagram's frame, flow and arrival time and yield
    nothing; the flow's next well-formed unit still comes out."""
    codec, client = _PlainCodec(), Client(RootKey.from_hex(ROOT_HEX))
    flow = CubeId(1, 2, 3)
    bad = [(2).to_bytes(4, "little") + bytes(12), b"\x01", (1).to_bytes(4, "little") + bytes(40)]
    for frame, unit in enumerate(bad):
        client.guard.begin_frame(frame)
        assert codec.receive(client, Datagram(flow, frame, 0, 1, unit), 1.5 + frame) is None
    assert client.state.failure_log == [(f, flow, "malformed", 1.5 + f) for f in range(len(bad))]
    good = (1).to_bytes(4, "little") + bytes(range(16))
    client.guard.begin_frame(3)
    got = codec.receive(client, Datagram(flow, 3, 0, 1, good), 5.0)
    assert got == (flow, 3, CubePlaintext(bytes(range(12)), bytes(range(12, 16))))


def test_privis_refresh_skips_static_low_cubes():
    r = run_session(small_cfg("privis"))
    # between rotation boundaries only the moving cluster is re-sent
    for row in r.frame_rows[1:6]:
        assert row["sent_units"] < row["cubes"]
    # a LOW cohort's interval-6 rotation refreshes its cubes too (the
    # second cohort's first epoch is shortened to 3 frames)
    for i in (3, 6):
        assert r.frame_rows[i]["sent_units"] > r.frame_rows[i - 1]["sent_units"]


def test_csv_outputs(tmp_path):
    out = str(tmp_path / "out")
    r = run_session(small_cfg("privis", leakage=replace(small_cfg().leakage, window_frames=4)))
    write_session_csvs([r], out)

    def rows(name, reader=csv.DictReader):
        with open(os.path.join(out, name), newline="") as f:
            return list(reader(f))

    frames = rows("frames.csv")
    assert len(frames) == SMALL.frame_count
    assert set(NON_TIMING) <= set(frames[0].keys())
    summary = rows("summary.csv", csv.reader)
    assert summary[0][0] == "mode"
    assert summary[1][0] == "privis"
    leak = rows("leakage.csv")
    assert len(leak) == 2  # two 4-frame windows closed in 8 frames
    assert os.path.exists(os.path.join(out, "failures.csv"))


@pytest.fixture(scope="module")
def csv_sessions():
    """A noenc session and a privis session with two closed leakage
    windows, whose rows fill all four CSVs."""
    return [
        run_session(small_cfg("noenc")),
        run_session(small_cfg("privis", leakage=replace(small_cfg().leakage, window_frames=4))),
    ]


@pytest.mark.parametrize("stale", ["frames.csv", "summary.csv", "leakage.csv", "failures.csv"])
def test_csv_with_another_header_is_refused_before_any_write(stale, csv_sessions, tmp_path):
    """Rows are appended only under their own columns: an existing CSV
    whose header differs (a file from another build) raises ConfigError
    naming it, and none of the four files is written or created."""
    out = tmp_path / "out"
    write_session_csvs(csv_sessions, str(out))
    (out / stale).write_text("mode,frame,cubes\n")
    (out / ("summary.csv" if stale == "failures.csv" else "failures.csv")).unlink()
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    with pytest.raises(ConfigError, match=stale):
        write_session_csvs(csv_sessions, str(out))
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def test_cli_refuses_a_csv_with_another_header(tmp_path, capsys):
    """A frames.csv written by a build without the rekeys column is left as
    it is, and the command exits with status 2 naming the file."""
    out = tmp_path / "cli"
    out.mkdir()
    header = ",".join(col for col in NON_TIMING if col != "rekeys")
    (out / "frames.csv").write_text(header + "\n")
    rc = main(["--mode", "noenc", "--frames", "1", "--points", "1000", "--out", str(out), "--root-key", ROOT_HEX])
    assert rc == 2
    assert "frames.csv" in capsys.readouterr().err
    assert [path.name for path in out.iterdir()] == ["frames.csv"]
    assert (out / "frames.csv").read_text() == header + "\n"


def test_rekeys_count_the_keys_the_sender_derived(monkeypatch):
    """rekeys is the number of keys the sender derived in the frame: none
    in noenc, the whole-frame key in uniform; in privis all 53 cubes at
    frame 0, then the 13 HIGH cubes every frame and one of the two 20-cube
    LOW cohorts at frames 3 and 6, never all 40 LOW cubes together."""
    import privis.keyring as keyring

    derived = []
    derive = keyring.derive_key
    monkeypatch.setattr(keyring, "derive_key", lambda *args: derived.append(args) or derive(*args))
    want = {"noenc": [0] * 8, "uniform": [1] * 8, "privis": [53, 13, 13, 33, 13, 13, 33, 13]}
    for mode, counts in want.items():
        derived.clear()
        rows = run_session(small_cfg(mode)).frame_rows
        assert [row["rekeys"] for row in rows] == counts
        assert len(derived) == sum(counts)
        assert all(row["rekeys"] <= row["sent_units"] for row in rows)


def test_cli_single_mode(tmp_path, capsys):
    out = str(tmp_path / "cli")
    rc = main(
        [
            "--mode", "privis",
            "--frames", "4",
            "--points", "5000",
            "--scene-seed", "3",
            "--out", out,
            "--root-key", ROOT_HEX,
        ]
    )
    assert rc == 0
    assert os.path.exists(os.path.join(out, "frames.csv"))
    text = capsys.readouterr().out
    assert "saliency_grouping" in text


def test_cli_comparison_exit_codes(capsys, monkeypatch, tmp_path):
    """Exit-code mechanics of the comparison path, decoupled from timing
    noise (the real ordering is gated by the acceptance suite on the full
    default scene, where it is statistically stable)."""
    import privis.__main__ as cli

    real = compare_modes(replace(small_cfg(), scene=replace(SMALL, frame_count=4)))

    def fake_ok(base):
        real.ordering_ok = True
        return real

    def fake_bad(base):
        real.ordering_ok = False
        return real

    monkeypatch.setattr(cli, "compare_modes", fake_ok)
    rc = main(["--frames", "4", "--points", "5000", "--out", str(tmp_path / "a")])
    assert rc == 0
    assert "ordering ok" in capsys.readouterr().out

    monkeypatch.setattr(cli, "compare_modes", fake_bad)
    rc = main(["--frames", "4", "--points", "5000"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "ORDERING VIOLATION" in captured.err


@pytest.mark.parametrize(
    "bad",
    [["--frames", "0"], ["--loss", "1.5"], ["--theta", "2"], ["--target-cubes", "0"], ["--root-key", "zz"]],
    ids=lambda bad: bad[0],
)
def test_cli_bad_argument_is_a_usage_error(bad, capsys, monkeypatch):
    """A value that a config or the root key rejects exits with status 2
    and the usage line, not a traceback and the ordering-violation status."""
    monkeypatch.delenv("PRIVIS_ROOT_KEY", raising=False)
    with pytest.raises(SystemExit) as exc:
        main(["--mode", "noenc", "--frames", "1", "--points", "1000", *bad])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


def test_compare_modes_shares_scene_and_seeds():
    comp = compare_modes(replace(small_cfg(), content_digests=True))
    assert set(comp.results) == set(MODES)
    for i in range(SMALL.frame_count):
        assert (
            comp.results["noenc"].content_digest_by_frame[i]
            == comp.results["privis"].content_digest_by_frame[i]
        )


def test_default_and_leakage_scene_shapes():
    d = default_scene()
    assert d.frame_count == 60
    lk = leakage_scene()
    assert lk.motion_amplitude == 0.0


def test_require_ordering_raises_with_diagnostics():
    from privis.errors import OrderingError

    comp = compare_modes(replace(small_cfg(), scene=replace(SMALL, frame_count=3)))
    comp.ordering_ok = False
    with pytest.raises(OrderingError, match="total"):
        comp.require_ordering()
    comp.ordering_ok = True
    comp.require_ordering()


def test_stage_sum_matches_total_within_five_percent():
    for mode in MODES:
        r = run_session(small_cfg(mode))
        m = r.mean
        comp_sum = (
            m.saliency_grouping
            + m.key_management
            + m.encryption
            + m.decryption
            + m.transport_assembly
        )
        assert abs(m.total - comp_sum) <= 0.05 * m.total, (mode, comp_sum, m.total)
        assert comp_sum <= m.total + 1e-6  # stages are nested inside the bracket


def test_root_key_from_environment(monkeypatch, tmp_path):
    monkeypatch.setenv("PRIVIS_ROOT_KEY", ROOT_HEX)
    rc = main(["--mode", "privis", "--frames", "2", "--points", "4000",
               "--out", str(tmp_path / "env")])
    assert rc == 0


def test_theta_trace_non_increasing_within_session():
    cfg = small_cfg("privis", leakage=replace(small_cfg().leakage, window_frames=3))
    r = run_session(cfg)
    trace = [row["theta"] for row in r.frame_rows]
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))


def test_policy_config_built_once_per_theta(monkeypatch):
    """Every assign_policy call of a frame gets the session's one policy
    config for the current theta: the same object across the frames of a
    leakage window, and a new one only after adaptation moved theta."""
    seen = []

    def spy(s, cfg):
        seen.append(cfg)
        return assign_policy(s, cfg)

    assign_policy = bench.assign_policy
    monkeypatch.setattr(bench, "assign_policy", spy)
    cfg = small_cfg("privis", leakage=replace(small_cfg().leakage, window_frames=3))
    session = Session(cfg)
    used = []
    for i in range(SMALL.frame_count):
        seen.clear()
        session.step(i)
        assert seen and all(c is seen[0] for c in seen), i
        used.append(seen[0])
    thetas = [cfg.policy.theta] + [row["theta"] for row in session.result.frame_rows]
    assert [c.theta for c in used] == thetas[:-1]
    for i in range(1, len(used)):
        assert (used[i] is used[i - 1]) == (thetas[i] == thetas[i - 1]), i
    assert used[0] is cfg.policy


@pytest.mark.parametrize("mode", MODES)
def test_mean_is_the_mean_of_the_frame_rows(mode):
    r = run_session(small_cfg(mode))
    for stage, value in r.mean.as_dict().items():
        assert value == pytest.approx(statistics.fmean(row[f"{stage}_ms"] for row in r.frame_rows)), stage


@pytest.mark.parametrize(
    "mode, net",
    [(m, NetConfig()) for m in MODES] + [("privis", NetConfig(loss_prob=0.05, reorder_prob=0.05, seed=3))],
    ids=[*MODES, "privis-lossy"],
)
def test_keep_units_changes_retention_only(mode, net):
    """keep_units adds the per-unit records and changes nothing else: the
    frame rows (theta trace included), summaries, leakage windows and
    failure log are the same without it, and the per-unit records empty."""
    cfg = small_cfg(mode, net=net, leakage=replace(small_cfg().leakage, window_frames=3))
    off = run_session(cfg)
    on = run_session(replace(cfg, keep_units=True))
    assert [[row[col] for col in NON_TIMING] for row in off.frame_rows] == [
        [row[col] for col in NON_TIMING] for row in on.frame_rows
    ]
    assert off.summaries == on.summaries
    assert off.leakage_windows == on.leakage_windows
    assert off.failure_log == on.failure_log
    assert (off.unit_records, off.sealed_units, off.mi_samples) == ([], {}, [])
    assert len(on.unit_records) == len(on.sealed_units) == sum(row["sent_units"] for row in on.frame_rows)
    assert bool(on.mi_samples) == (mode == "privis")
    if mode == "privis":
        assert len(on.leakage_windows) == 2


def test_default_session_heap_does_not_grow_per_unit():
    """Without keep_units, the traced heap grows per frame by the frame's
    own row and summary (about 1 kB), not by a record per unit sent: about
    20 units a frame here, whose records take about 15 kB a frame."""
    warm, frames = 20, 80
    session = Session(replace(small_cfg(), scene=replace(SMALL, frame_count=frames)))
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        for i in range(warm):
            session.step(i)
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for i in range(warm, frames):
            session.step(i)
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        if started:
            tracemalloc.stop()
    units = sum(row["sent_units"] for row in session.result.frame_rows[warm:]) / (frames - warm)
    per_frame = (after - before) / (frames - warm)
    assert units > 10
    assert per_frame < 5_000, f"{per_frame:.0f} bytes a frame over {units:.1f} units a frame"


def test_leakage_windows_cover_every_mi_sample():
    cfg = small_cfg("privis", leakage=replace(small_cfg().leakage, window_frames=3), keep_units=True)
    r = run_session(replace(cfg, scene=replace(SMALL, frame_count=9)))
    assert len(r.leakage_windows) == 3
    assert sum(w["samples"] for w in r.leakage_windows) == len(r.mi_samples)


@pytest.mark.parametrize(
    "mode, net",
    [(m, NetConfig()) for m in MODES] + [("privis", NetConfig(loss_prob=0.05, seed=3))],
)
def test_bytes_sent_is_the_wire_length_of_the_units_sent(mode, net):
    """Each frame's bytes_sent is the sum, over the units it sent, of the
    unit and one fragment header per fragment; loss does not change it."""
    r = run_session(small_cfg(mode, net=net, keep_units=True))
    payload_max = net.mtu - FRAG_HEADER_LEN
    per_frame = dict.fromkeys(range(SMALL.frame_count), 0)
    for (frame, _cid), unit in r.sealed_units.items():
        per_frame[frame] += len(unit) + FRAG_HEADER_LEN * -(-len(unit) // payload_max)
    assert [row["bytes_sent"] for row in r.frame_rows] == list(per_frame.values())
    assert sum(per_frame.values()) > 0


def test_work_columns_count_what_changed():
    """changed_points counts the points moved, recolored or relabeled since
    the previous frame (all of them at frame 0), rebuilt_cubes the cubes
    that are not the previous frame's objects; every rebuilt cube is sent.
    A static scene skips all of it after frame 0."""
    static = run_session(replace(small_cfg(), scene=leakage_scene(frames=8)))
    first, *rest = static.frame_rows
    assert (first["changed_points"], first["rebuilt_cubes"]) == (17_565, first["cubes"])
    assert all((row["changed_points"], row["rebuilt_cubes"]) == (0, 0) for row in rest)
    moving = run_session(small_cfg())
    for i, row in enumerate(moving.frame_rows[1:], start=1):
        before, now = generate_frame(SMALL, i - 1), generate_frame(SMALL, i)
        differ = (
            (now.positions != before.positions).any(axis=1)
            | (now.colors != before.colors).any(axis=1)
            | (now.sensitivity != before.sensitivity)
        )
        assert row["changed_points"] == np.count_nonzero(differ) > 0
        assert 0 < row["rebuilt_cubes"] < row["cubes"]
        assert row["sent_units"] >= row["rebuilt_cubes"]


def _fresh_plaintext(frame, cube) -> CubePlaintext:
    idx = cube.point_indices
    attrs = np.empty((len(idx), 4), dtype=np.uint8)
    attrs[:, :3] = frame.colors[idx]
    attrs[:, 3] = frame.sensitivity[idx]
    return CubePlaintext(frame.positions[idx].astype("<f4").tobytes(), attrs.tobytes())


@pytest.mark.parametrize("mode", MODES)
def test_every_sent_plaintext_is_a_fresh_serialization(mode, monkeypatch):
    """Every mode packs each unit it sends with serialize_cube, and a
    plaintext held on a kept Cube is sent as if serialized from the frame
    it goes out in. Every frame recolors, relabels and nudges a few points
    within their cells, so a held plaintext that outlived such an edit
    would differ at the next refresh of its cube (under privis the LOW
    cubes rotate at frames 6 and 12)."""
    frames = 13

    def edited_frame(scene, i):
        frame = generate_frame(scene, i)
        rng = np.random.default_rng(i)
        n = frame.num_points
        colors, labels, positions = frame.colors.copy(), frame.sensitivity.copy(), frame.positions.copy()
        colors[rng.choice(n, 5, replace=False), 0] ^= i % 7 + 1
        labels[rng.choice(n, 3, replace=False)] ^= 1
        positions[rng.choice(n, 3, replace=False)] *= 1.0 + 1e-12
        return replace(frame, colors=colors, sensitivity=labels, positions=positions)

    sent = []
    serialize = bench.serialize_cube

    def checked_serialize(frame, cube):
        plain = serialize(frame, cube)
        sent.append((frame.frame_id, cube.id))
        assert plain == _fresh_plaintext(frame, cube), (frame.frame_id, cube.id)
        return plain

    monkeypatch.setattr(bench, "generate_frame", edited_frame)
    monkeypatch.setattr(bench, "serialize_cube", checked_serialize)
    r = run_session(replace(small_cfg(mode), scene=replace(SMALL, frame_count=frames)))
    assert len(sent) == sum(row["sent_units"] for row in r.frame_rows) > 0
    if mode == "privis":
        # the rotation frames resend kept cubes, from the plaintext they hold
        assert all(row["rebuilt_cubes"] < row["sent_units"] for row in r.frame_rows[6::6])


@pytest.mark.parametrize("mode", MODES)
def test_zero_point_scene_runs_in_every_mode(mode):
    """A frame with no points has no cubes: noenc and privis send nothing,
    while uniform still sends its one whole-frame unit, which verifies and
    renders 0 points. Nothing is logged as a failure."""
    scene = replace(default_scene(frames=4), points_per_frame=0)
    r = run_session(RunConfig(mode=mode, scene=scene, root_key_hex=ROOT_HEX, content_digests=True))
    counts = (0, 1, 1, 0, 0) if mode == "uniform" else (0, 0, 0, 0, 0)
    cols = ("cubes", "sent_units", "admitted", "held", "dropped")
    assert [tuple(row[c] for c in cols) for row in r.frame_rows] == [counts] * 4
    assert all(row["point_total"] == 0 for row in r.frame_rows)
    assert r.failure_log == []
    assert set(r.content_digest_by_frame.values()) == {hashlib.sha256(b"").hexdigest()}


def test_empty_frames_csv_gets_a_header(tmp_path):
    """An existing empty frames.csv is a new file: its first rows come
    after a header, as in the other three CSVs."""
    out = tmp_path / "out"
    out.mkdir()
    (out / "frames.csv").touch()
    r = run_session(small_cfg("noenc"))
    write_session_csvs([r], str(out))
    with open(out / "frames.csv", newline="") as f:
        frames = list(csv.DictReader(f))
    assert len(frames) == SMALL.frame_count
    assert [int(row["frame"]) for row in frames] == list(range(SMALL.frame_count))


def test_a_frame_files_only_its_own_outcomes(monkeypatch):
    """Forged units naming the previous (still open) frame, for cubes that
    sent nothing there, arrive after those cubes' own units of this frame.
    Each fails verification and is logged, but the frame composes exactly
    as the clean run does: a failure for an older frame does not displace
    the admitted cube."""
    cfg = RunConfig(mode="privis", scene=default_scene(points=8000), root_key_hex="5a" * 32)
    clean = Session(cfg)
    for i in range(7):
        clean.step(i)

    forger = RootKey.from_hex("a5" * 32)
    policy = ProtectionPolicy(ProtectionLevel.HIGH, 1, Scope.FULL_PAYLOAD, 0.0)
    sent_by_frame = {}
    forged = []
    channel = bench.transmit

    def attacked_transmit(sendlist, net):
        frame_id = sendlist[0][0].frame_id
        sent_by_frame[frame_id] = {d.flow_id for d, _t in sendlist}
        delivered, traces = channel(sendlist, net)
        if frame_id == 6:
            forged.extend(sorted(sent_by_frame[6] - sent_by_frame[5])[:5])
            late = delivered[-1][1] + 1.0
            for cid in forged:
                key = KeyEpoch(cid, 0, derive_key(forger, cid, 0), 5)
                unit = seal_cube(CubePlaintext(bytes(12), bytes(4)), key, policy, 5, forger.session_id)
                delivered += [(d, late) for d in packetize(unit.to_bytes(), cid, 5, net.mtu)]
        return delivered, traces

    monkeypatch.setattr(bench, "transmit", attacked_transmit)
    attacked = Session(cfg)
    for i in range(7):
        attacked.step(i)
    assert len(forged) == 5
    assert attacked.result.summaries[6] == clean.result.summaries[6]
    log = attacked.client.state.failure_log
    assert [(f, cid, reason) for f, cid, reason, _t in log if f == 5] == [(5, cid, "auth_failure") for cid in forged]
