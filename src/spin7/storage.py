"""Checkpoint files, run manifests and series CSV output.

Checkpoint layout (version 1):

    bytes 0-3    magic "S7FL"
    bytes 4-7    format version, uint32 little-endian
    bytes 8-15   header length H, uint64 little-endian
    next H       header, UTF-8 JSON: lattice spec, t, step, previous-record
                 (t, E) for seamless resume, and the full run config when
                 written by the CLI
    rest         field payload: float64 little-endian, row-major over the
                 grid, 70 canonical components per point

Readers reject unknown magic or version.  All writes go through a
temp-file-then-rename so partially written files are never picked up.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .flow import DIAG_COLUMNS, DiagRecord, FlowState
from .lattice import LatticeSpec, as_number

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "CheckpointError",
    "write_checkpoint",
    "read_checkpoint",
    "SeriesWriter",
    "write_manifest",
    "config_hash",
    "atomic_write_bytes",
]

MAGIC = b"S7FL"
FORMAT_VERSION = 1


class CheckpointError(ValueError):
    """Malformed, truncated or unsupported checkpoint file."""


def atomic_write_bytes(path: str, payload: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_checkpoint(path: str, state: FlowState,
                     prev_record: tuple[float, float] | None = None,
                     config_dict: dict | None = None) -> None:
    header = {
        "lattice": state.spec.to_dict(),
        "t": state.t,
        "step": state.step,
    }
    if prev_record is not None:
        header["prev_record"] = [prev_record[0], prev_record[1]]
    if config_dict is not None:
        header["config"] = config_dict
    raw = json.dumps(header, sort_keys=True).encode("utf-8")
    body = np.ascontiguousarray(state.phi, dtype="<f8").tobytes()
    blob = (MAGIC + FORMAT_VERSION.to_bytes(4, "little")
            + len(raw).to_bytes(8, "little") + raw + body)
    atomic_write_bytes(path, blob)


@dataclass
class LoadedCheckpoint:
    state: FlowState
    prev_record: tuple[float, float] | None
    config_dict: dict | None


def read_checkpoint(path: str) -> LoadedCheckpoint:
    """The state, previous record and run config a checkpoint holds.

    Raises CheckpointError for a file that is not a version-1 checkpoint, a
    header that is not a JSON object of the expected keys, a header number
    (`t`, `step`, `prev_record`, the lattice's) that is not a finite number
    of its kind, or a payload of the wrong size or holding a value that is
    not finite.  OSError from reading the file passes through.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
    version = int.from_bytes(blob[4:8], "little")
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint format version {version} "
            f"(reader supports {FORMAT_VERSION})")
    hlen = int.from_bytes(blob[8:16], "little")
    if len(blob) < 16 + hlen:
        raise CheckpointError(f"{path}: truncated header ({len(blob)} bytes in the file)")
    try:
        header = json.loads(blob[16:16 + hlen].decode("utf-8"))
        if not isinstance(header, dict):
            raise TypeError("header is not a JSON object")
        spec = LatticeSpec.from_dict(header["lattice"])
        t, step = as_number(float, header["t"], "t"), as_number(int, header["step"], "step")
        if as_number(float, header.get("metric_scale", 1.0), "metric_scale") != 1.0:
            # a legacy conformal factor: rescaled states now live on a larger period
            raise ValueError("metric_scale is no longer read; re-run `spin7 rescale` "
                             "from the unscaled checkpoint")
        prev = header.get("prev_record")
        if prev is not None:
            if not isinstance(prev, list) or len(prev) != 2:
                raise ValueError(f"prev_record: expected two numbers, got {prev!r}")
            prev = tuple(as_number(float, v, "prev_record") for v in prev)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        # ValueError covers UnicodeDecodeError and JSONDecodeError
        raise CheckpointError(f"{path}: bad header: {exc!r}") from exc
    body = blob[16 + hlen:]
    expected = spec.n_points * 70 * 8
    if len(body) != expected:
        raise CheckpointError(
            f"{path}: payload is {len(body)} bytes, expected {expected}")
    phi = np.frombuffer(body, dtype="<f8").astype(float).reshape(spec.grid_shape + (70,))
    if not np.isfinite(phi).all():
        raise CheckpointError(f"{path}: payload holds a value that is not finite")
    state = FlowState(spec=spec, phi=phi, t=t, step=step)
    return LoadedCheckpoint(state=state, prev_record=prev, config_dict=header.get("config"))


def _fmt(x: float) -> str:
    """Full-precision scientific notation (17 significant digits)."""
    return f"{x:.16e}"


class SeriesWriter:
    """Accumulates diagnostic rows; flushes the CSV atomically."""

    def __init__(self, path: str):
        self.path = path
        self.rows: list[tuple] = []

    def append(self, record: DiagRecord) -> None:
        self.rows.append(record.as_tuple())

    def flush(self) -> None:
        write_series_csv(self.path, self.rows, DIAG_COLUMNS)


def write_series_csv(path: str, rows, columns) -> None:
    lines = [",".join(columns)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("utf-8"))


def config_hash(config_dict: dict) -> str:
    return hashlib.sha256(
        json.dumps(config_dict, sort_keys=True).encode("utf-8")).hexdigest()


def write_manifest(path: str, config_dict: dict, seed: int, spec: LatticeSpec,
                   started: str, finished: str | None, exit_reason: str) -> None:
    from . import __version__
    manifest = {
        "config_hash": config_hash(config_dict),
        "code_version": __version__,
        "seed": seed,
        "lattice": spec.to_dict(),
        "started": started,
        "finished": finished,
        "exit_reason": exit_reason,
    }
    atomic_write_bytes(path, (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode())
