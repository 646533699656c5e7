import json
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from spin7.cli import main
from spin7.flow import DiagRecord, initial_data
from spin7.lattice import LatticeSpec
from spin7.storage import (FORMAT_VERSION, CheckpointError, SeriesWriter,
                           config_hash, read_checkpoint, write_checkpoint,
                           write_manifest)


@pytest.fixture
def state():
    spec = LatticeSpec(active_axes=(0,), points=8)
    return initial_data("rotation-field", {"eps": 0.05}, spec, seed=2)


def test_checkpoint_roundtrip_bit_identical(tmp_path, state):
    path = str(tmp_path / "a.s7fl")
    state.t, state.step = 0.125, 40
    write_checkpoint(path, state, prev_record=(0.1, 2.5), config_dict={"x": 1})
    loaded = read_checkpoint(path)
    assert loaded.state.spec == state.spec
    assert loaded.state.t == state.t and loaded.state.step == 40
    assert loaded.prev_record == (0.1, 2.5)
    assert loaded.config_dict == {"x": 1}
    np.testing.assert_array_equal(loaded.state.phi, state.phi)
    # writing the loaded state again gives identical bytes
    path2 = str(tmp_path / "b.s7fl")
    write_checkpoint(path2, loaded.state, prev_record=loaded.prev_record,
                     config_dict=loaded.config_dict)
    assert open(path, "rb").read() == open(path2, "rb").read()


def test_checkpoint_bad_magic(tmp_path):
    path = str(tmp_path / "bad.s7fl")
    with open(path, "wb") as fh:
        fh.write(b"NOPE" + b"\0" * 32)
    with pytest.raises(CheckpointError, match="magic"):
        read_checkpoint(path)


def test_checkpoint_unknown_version(tmp_path, state):
    path = str(tmp_path / "v.s7fl")
    write_checkpoint(path, state)
    blob = bytearray(open(path, "rb").read())
    blob[4:8] = (FORMAT_VERSION + 1).to_bytes(4, "little")
    with open(path, "wb") as fh:
        fh.write(bytes(blob))
    with pytest.raises(CheckpointError, match="version"):
        read_checkpoint(path)


def test_checkpoint_truncated_payload(tmp_path, state):
    path = str(tmp_path / "t.s7fl")
    write_checkpoint(path, state)
    blob = open(path, "rb").read()
    with open(path, "wb") as fh:
        fh.write(blob[:-16])
    with pytest.raises(CheckpointError, match="payload"):
        read_checkpoint(path)


def _with_header(blob: bytes, header: dict) -> bytes:
    """The checkpoint bytes with the header replaced, payload kept."""
    hlen = int.from_bytes(blob[8:16], "little")
    raw = json.dumps(header).encode("utf-8")
    return blob[:8] + len(raw).to_bytes(8, "little") + raw + blob[16 + hlen:]


def _header_of(blob: bytes) -> dict:
    return json.loads(blob[16:16 + int.from_bytes(blob[8:16], "little")])


@pytest.mark.parametrize("corrupt", [
    lambda b: b[:10],                                          # cut to 10 bytes
    lambda b: b[:16] + b"\xff" + b[17:],                       # non-UTF-8 header byte
    lambda b: b[:8] + (len(b)).to_bytes(8, "little") + b[16:],  # header length past EOF
    lambda b: _with_header(b, {k: v for k, v in _header_of(b).items() if k != "t"}),
    lambda b: _with_header(b, dict(_header_of(b), lattice={"points": 8})),
    lambda b: _with_header(b, dict(_header_of(b), metric_scale=4.0)),
    lambda b: _with_header(b, dict(_header_of(b), metric_scale="1")),
    lambda b: _with_header(b, dict(_header_of(b), prev_record=[True, "0.5"])),
    lambda b: _with_header(b, dict(_header_of(b), prev_record=[0.1, 0.2, 0.3])),
    lambda b: _with_header(b, dict(_header_of(b), t=float("nan"))),
    lambda b: _with_header(b, dict(_header_of(b), step=-5)),
    lambda b: _with_header(b, dict(_header_of(b), t=-0.5)),
    lambda b: _with_header(b, dict(_header_of(b), prev_record=[float("nan"), 1.0])),
    lambda b: _with_header(b, dict(_header_of(b),
                                   lattice=dict(_header_of(b)["lattice"], period=float("inf")))),
    lambda b: b[:-8] + np.float64("nan").tobytes(),            # last payload value NaN
    lambda b: _with_header(b, dict(_header_of(b),
                                   lattice=dict(_header_of(b)["lattice"], spacing=0.125))),
], ids=["cut-10-bytes", "non-utf8-header", "header-past-eof", "missing-key",
        "bad-lattice", "legacy-metric-scale", "metric-scale-text", "prev-record-not-numbers",
        "prev-record-three-entries", "t-nan", "step-negative", "t-negative", "prev-record-nan",
        "period-infinity", "payload-nan", "header-lattice-unknown-key"])
def test_checkpoint_corruption_is_typed(tmp_path, state, capsys, corrupt):
    path = str(tmp_path / "c.s7fl")
    write_checkpoint(path, state)
    with open(path, "rb") as fh:
        blob = fh.read()
    with open(path, "wb") as fh:
        fh.write(corrupt(blob))
    with pytest.raises(CheckpointError):
        read_checkpoint(path)
    out = tmp_path / "out"
    for command in (["soliton-check", "--out-csv", str(tmp_path / "s.csv")],
                    ["entropy", "--sigma", "0.01", "--out-csv", str(tmp_path / "e.csv")],
                    ["theta", "--t0", "1.0", "--out-csv", str(tmp_path / "t.csv")],
                    ["flow", "resume", "--out", str(out)]):
        assert main([*command, "--checkpoint", path]) == 2
        assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("lattice", [{"active_axes": [1.5]}, {"active_axes": [True]},
                                     {"points": 8.5}, {"stencil_order": "2"}],
                         ids=["axis-fraction", "axis-bool", "points-fraction", "order-text"])
def test_checkpoint_non_integer_lattice_field_is_typed(tmp_path, state, capsys, lattice):
    """A lattice field that is not an integer is refused, not truncated; the
    analysis commands exit 2 instead of tracing back or running on it."""
    path = str(tmp_path / "n.s7fl")
    write_checkpoint(path, state)
    with open(path, "rb") as fh:
        blob = fh.read()
    header = _header_of(blob)
    with open(path, "wb") as fh:
        fh.write(_with_header(blob, dict(header, lattice=dict(header["lattice"], **lattice))))
    with pytest.raises(CheckpointError, match="expected int"):
        read_checkpoint(path)
    for command in (["entropy", "--sigma", "0.01"], ["soliton-check"]):
        assert main([*command, "--checkpoint", path,
                     "--out-csv", str(tmp_path / "x.csv")]) == 2
        assert "config error" in capsys.readouterr().err


def test_checkpoint_legacy_unit_metric_scale_accepted(tmp_path, state):
    path = str(tmp_path / "l.s7fl")
    write_checkpoint(path, state)
    with open(path, "rb") as fh:
        blob = fh.read()
    assert "metric_scale" not in _header_of(blob)
    with open(path, "wb") as fh:
        fh.write(_with_header(blob, dict(_header_of(blob), metric_scale=1.0)))
    np.testing.assert_array_equal(read_checkpoint(path).state.phi, state.phi)


@pytest.fixture(scope="module")
def blobs(tmp_path_factory):
    """A valid checkpoint's bytes, and the same with a legacy metric_scale 4."""
    path = str(tmp_path_factory.mktemp("blob") / "v.s7fl")
    spec = LatticeSpec(active_axes=(0,), points=8)
    write_checkpoint(path, initial_data("rotation-field", {"eps": 0.05}, spec, seed=2),
                     prev_record=(0.1, 2.5), config_dict={"x": 1})
    with open(path, "rb") as fh:
        blob = fh.read()
    return blob, _with_header(blob, dict(_header_of(blob), metric_scale=4.0))


# the 16-byte preamble and the header (about 150 bytes) matter most; the
# payload (4480 bytes) is any float64 bytes
_POSITION = st.one_of(st.integers(0, 256), st.integers(0, 4800))
_MUTATION = st.one_of(
    st.tuples(st.just("flip"), _POSITION, st.integers(1, 255)),
    st.tuples(st.just("truncate"), _POSITION, st.just(b"")),
    st.tuples(st.just("insert"), _POSITION, st.binary(min_size=1, max_size=8)),
)


def _mutate(blob: bytes, mutations) -> bytes:
    out = bytearray(blob)
    for kind, pos, arg in mutations:
        pos = min(pos, len(out))
        if kind == "flip" and pos < len(out):
            out[pos] ^= arg
        elif kind == "truncate":
            del out[pos:]
        elif kind == "insert":
            out[pos:pos] = arg
    return bytes(out)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(legacy=st.booleans(), mutations=st.lists(_MUTATION, min_size=1, max_size=3))
def test_checkpoint_byte_mutation_is_typed(tmp_path, blobs, legacy, mutations):
    """A mutated checkpoint either reads as a state or raises
    CheckpointError, never another exception."""
    path = str(tmp_path / "m.s7fl")
    with open(path, "wb") as fh:
        fh.write(_mutate(blobs[legacy], mutations))
    try:
        loaded = read_checkpoint(path)
    except CheckpointError:
        return
    assert loaded.state.phi.shape == loaded.state.spec.grid_shape + (70,)


def test_series_writer_full_precision(tmp_path):
    path = str(tmp_path / "s.csv")
    w = SeriesWriter(path)
    rec = DiagRecord(t=1 / 3, E=np.pi, dEdt=-1e-17, negDivT2=-2.0, maxT=0.1,
                     bianchi=0.0, ricci=0.0, scalar=0.0, metric_drift=1e-15,
                     omega21_defect=0.0)
    w.append(rec)
    w.flush()
    lines = open(path).read().splitlines()
    assert lines[0].startswith("t,E,dEdt,")
    val = lines[1].split(",")[1]
    assert float(val) == np.pi  # 17 significant digits round-trip float64
    assert "e" in val


def test_manifest_written_and_finalized(tmp_path, state):
    path = str(tmp_path / "manifest.json")
    cfg = {"lattice": state.spec.to_dict()}
    write_manifest(path, cfg, seed=3, spec=state.spec, started="s", finished=None,
                   exit_reason="running")
    m = json.loads(open(path).read())
    assert m["exit_reason"] == "running" and m["finished"] is None
    assert m["config_hash"] == config_hash(cfg)
    write_manifest(path, cfg, seed=3, spec=state.spec, started="s", finished="f",
                   exit_reason="max_steps")
    m = json.loads(open(path).read())
    assert m["exit_reason"] == "max_steps"
    assert m["seed"] == 3


def test_atomic_write_leaves_no_partials(tmp_path, state, monkeypatch):
    """A write that succeeds, and one whose final rename fails, each leave no
    partial file; the failed one leaves the old checkpoint as it was."""
    path = str(tmp_path / "c.s7fl")
    write_checkpoint(path, state)
    assert [f for f in os.listdir(tmp_path) if f.endswith(".part")] == []
    old = (tmp_path / "c.s7fl").read_bytes()

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        write_checkpoint(path, state, prev_record=(0.1, 2.5))
    assert (tmp_path / "c.s7fl").read_bytes() == old
    assert sorted(os.listdir(tmp_path)) == ["c.s7fl"]
