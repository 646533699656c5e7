"""Workload definitions: seeded inputs, set-up, one timed operation, checks.

Every workload drives the package only through its public entry points:
`spin7.cli.main` for the commands a user types and `spin7.flow` /
`spin7.storage` for records and fixtures.  The package sees nothing but
the configs and checkpoints generated here from the seed.

flow-1d   64 points on axis 1, rotation-field: stepping dominates and the
          orbit update (`so8_exp` + `rotate_form`) carries the most time.
flow-3d   8^3 on axes 1-3, random-smooth, records only at start and end:
          the dense torsion einsum dominates each step, and the steps
          dominate the run.
analysis  four checkpoints of a 16^2 random-smooth flow made in set-up;
          the timed phase reads them, records diagnostics and runs theta,
          entropy, rescale and soliton-check.  No stepping is timed, so it
          is the "no change" side for every step optimisation.

Both flows time the `spin7 flow resume` command alone.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import time
import traceback
from dataclasses import dataclass, field

from spin7 import cli, flow, storage

HERE = os.path.dirname(os.path.abspath(__file__))

with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as _fh:
    REFERENCE = json.load(_fh)

# criterion 7 thresholds for structure preservation
MAX_METRIC_DRIFT = 1e-9
MAX_OMEGA21_DEFECT = 1e-12


@dataclass
class Fixture:
    config: object                    # spin7.flow.FlowConfig
    checkpoints: list[str]
    records: list[dict] = field(default_factory=list)      # made in set-up
    step_times: list[float] = field(default_factory=list)   # set-up flow_step calls


@dataclass
class OpResult:
    wall_s: float = 0.0
    steps: int = 0                    # flow steps timed in wall_s
    fingerprint: bytes = b""
    failures: list[str] = field(default_factory=list)


def _run(argv: list[str]) -> tuple[int, float, str]:
    """Run one CLI command with its console output captured; an uncaught
    exception counts as exit code 1 with its traceback as the output."""
    sink = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = 1
    return code, time.perf_counter() - t0, sink.getvalue()


def _read_csv(path: str) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def _row(rec) -> dict:
    """A flow.DiagRecord as the dict a series.csv row reads as."""
    return {c: float(v) for c, v in zip(flow.DIAG_COLUMNS, rec.as_tuple())}


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def check_records(rows, failures: list[str], where: str) -> None:
    """Structure and energy checks on a sequence of diagnostics rows."""
    if len(rows) < 2:
        failures.append(f"{where}: {len(rows)} records, need at least 2")
        return
    for i, row in enumerate(rows):
        bad = [k for k, v in row.items() if not math.isfinite(v)]
        if bad:
            failures.append(f"{where}: record {i} has non-finite {bad}")
        if not row["metric_drift"] < MAX_METRIC_DRIFT:
            failures.append(f"{where}: record {i} metric_drift {row['metric_drift']:.3e}")
        if not row["omega21_defect"] < MAX_OMEGA21_DEFECT:
            failures.append(f"{where}: record {i} omega21_defect {row['omega21_defect']:.3e}")
        if i > 0 and not row["dEdt"] <= 0.0:
            failures.append(f"{where}: record {i} dEdt {row['dEdt']:.3e} > 0")
    if not rows[-1]["E"] < rows[0]["E"]:
        failures.append(f"{where}: no energy drop ({rows[0]['E']:.6e} -> {rows[-1]['E']:.6e})")


def check_reference(name: str, rows, failures: list[str]) -> None:
    """Final E and maxT against the reference stored in reference.json."""
    ref = REFERENCE[name]
    first, last = rows[0], rows[-1]
    for key in ("E", "maxT"):
        if "final_" + key in ref:
            want = ref["final_" + key]
            rel = abs(last[key] - want) / want
            if not rel <= ref["rel_tol"]:
                failures.append(f"{name}: final {key} {last[key]:.6e} is {rel:.1%} "
                                f"from reference {want:.6e} (tol {ref['rel_tol']:.0%})")
        if "max_final_ratio_" + key in ref:
            ratio = last[key] / first[key]
            if not ratio <= ref["max_final_ratio_" + key]:
                failures.append(f"{name}: final/initial {key} {ratio:.3e} above "
                                f"{ref['max_final_ratio_' + key]:.3e}")


def check_theta(values, failures: list[str], where: str) -> None:
    """theta is finite, positive and nonincreasing along the flow (criterion 10)."""
    if not values or not all(math.isfinite(v) and v > 0.0 for v in values):
        failures.append(f"{where}: theta values {values} not finite and positive")
        return
    for a, b in zip(values, values[1:]):
        if not b - a <= 1e-3 * abs(a):
            failures.append(f"{where}: theta increases along the flow ({a:.6e} -> {b:.6e})")


def _write_config(path: str, raw: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(raw, fh, indent=2)


# ---------------------------------------------------------------------------

class FlowWorkload:
    """`spin7 flow resume` from a step-0 checkpoint written in set-up.

    Resuming a step-0 checkpoint runs the same `run_flow` path as
    `flow run`, with `initial_data` and the step-0 record charged to
    set-up instead of the timed phase: the checkpoint carries that record,
    as one written by an earlier run does, so the resumed run does not
    repeat it.
    """

    def __init__(self, name: str, lattice: dict, initial: dict, steps: int,
                 diag_cadence: int, checkpoint_cadence: int):
        self.name = name
        self.lattice = lattice
        self.initial = initial
        self.steps = steps
        self.diag_cadence = diag_cadence
        self.checkpoint_cadence = checkpoint_cadence

    def raw_config(self, seed: int) -> dict:
        return {
            "lattice": dict(self.lattice),
            "initial": {**self.initial, "seed": seed},
            "cfl": 0.1,
            "max_steps": self.steps,
            "diag_cadence": self.diag_cadence,
            "checkpoint_cadence": self.checkpoint_cadence,
            "div_tol": 1e-8,
        }

    def setup(self, work: str, seed: int) -> Fixture:
        os.makedirs(work, exist_ok=True)
        cfg_path = os.path.join(work, "config.json")
        _write_config(cfg_path, self.raw_config(seed))
        config, raw = cli.load_config(cfg_path)
        state = flow.initial_data(config.family, config.params, config.spec, config.seed)
        rec = flow.diagnostics(state, None)
        ckpt = os.path.join(work, "start.s7fl")
        storage.write_checkpoint(ckpt, state, prev_record=(rec.t, rec.E), config_dict=raw)
        return Fixture(config=config, checkpoints=[ckpt], records=[_row(rec)])

    def op(self, fx: Fixture, out: str, seed: int) -> OpResult:
        res = OpResult(steps=self.steps)
        run_dir = os.path.join(out, "run")
        code, res.wall_s, text = _run(["flow", "resume", "--checkpoint", fx.checkpoints[0],
                                       "--out", run_dir])
        if code != 0:
            res.failures.append(f"{self.name}: flow resume exited {code}: {text.strip()}")
            return res
        with open(os.path.join(run_dir, "manifest.json"), encoding="utf-8") as fh:
            reason = json.load(fh)["exit_reason"]
        if reason != "max_steps":
            res.failures.append(f"{self.name}: exit reason {reason!r}, expected 'max_steps'")
        series_path = os.path.join(run_dir, "series.csv")
        rows = _read_csv(series_path)
        expected = self.steps // self.diag_cadence
        if len(rows) != expected:
            res.failures.append(f"{self.name}: {len(rows)} records, expected {expected}")
        rows = fx.records + rows
        check_records(rows, res.failures, self.name)
        check_reference(self.name, rows, res.failures)
        res.fingerprint = _read(series_path)
        return res


class AnalysisWorkload:
    """Read checkpoints, one diagnostics record per state, then theta over
    all of them, entropy, rescale and soliton-check through the CLI."""

    name = "analysis"
    points = 16
    n_checkpoints = 4
    steps_between = 3

    def raw_config(self, seed: int) -> dict:
        return {
            "lattice": {"active_axes": [1, 2], "points": self.points, "period": 1.0,
                        "stencil_order": 2},
            "initial": {"family": "random-smooth", "params": {"eps": 0.05, "kmax": 2},
                        "seed": seed},
            "cfl": 0.1,
            "max_steps": self.steps_between * (self.n_checkpoints - 1),
        }

    def setup(self, work: str, seed: int) -> Fixture:
        os.makedirs(work, exist_ok=True)
        cfg_path = os.path.join(work, "config.json")
        _write_config(cfg_path, self.raw_config(seed))
        config, raw = cli.load_config(cfg_path)
        state = flow.initial_data(config.family, config.params, config.spec, config.seed)
        fx = Fixture(config=config, checkpoints=[])
        for i in range(self.n_checkpoints):
            for _ in range(self.steps_between if i else 0):
                t0 = time.perf_counter()
                state = flow.flow_step(state, config.dt)
                fx.step_times.append(time.perf_counter() - t0)
            path = os.path.join(work, f"ckpt_{state.step:08d}.s7fl")
            storage.write_checkpoint(path, state, config_dict=raw)
            fx.checkpoints.append(path)
        return fx

    def op(self, fx: Fixture, out: str, seed: int) -> OpResult:
        res = OpResult()
        os.makedirs(out, exist_ok=True)
        t_start = time.perf_counter()
        records, prev = [], None
        for path in fx.checkpoints:
            loaded = storage.read_checkpoint(path)
            rec = flow.diagnostics(loaded.state, prev)
            prev = (rec.t, rec.E)
            records.append(rec)
        t_last = loaded.state.t
        theta_csv = os.path.join(out, "theta.csv")
        code_th, _, text_th = _run(["theta", "--checkpoint", *fx.checkpoints,
                                    "--t0", repr(2.0 * t_last + 5e-4),
                                    "--out-csv", theta_csv])
        ent_csv = os.path.join(out, "entropy.csv")
        sigma = (fx.config.spec.period / 8.0) ** 2
        code_en, _, text_en = _run(["entropy", "--checkpoint", fx.checkpoints[0],
                                    "--sigma", repr(sigma), "--out-csv", ent_csv])
        rs_ckpt, rs_csv = os.path.join(out, "rescaled.s7fl"), os.path.join(out, "rescale.csv")
        code_rs, _, text_rs = _run(["rescale", "--checkpoint", fx.checkpoints[0],
                                    "--factor", "2", "--out-checkpoint", rs_ckpt,
                                    "--report-csv", rs_csv])
        sol_csv = os.path.join(out, "soliton.csv")
        code_so, _, text_so = _run(["soliton-check", "--checkpoint", fx.checkpoints[-1],
                                    "--x-seed", str(seed), "--out-csv", sol_csv])
        res.wall_s = time.perf_counter() - t_start

        rows = [_row(r) for r in records]
        check_records(rows, res.failures, self.name)
        check_reference(self.name, rows, res.failures)
        blobs = [repr([r.as_tuple() for r in records]).encode()]
        for label, code, text, path in (("theta", code_th, text_th, theta_csv),
                                        ("entropy", code_en, text_en, ent_csv),
                                        ("rescale", code_rs, text_rs, rs_csv),
                                        ("soliton-check", code_so, text_so, sol_csv)):
            if code != 0:
                res.failures.append(f"analysis: {label} exited {code}: {text.strip()}")
                continue
            blobs.append(_read(path))
            values = [v for row in _read_csv(path) for v in row.values()]
            if not all(math.isfinite(v) for v in values):
                res.failures.append(f"analysis: {label} output not finite: {values}")
        if code_th == 0:
            check_theta([r["theta"] for r in _read_csv(theta_csv)], res.failures, self.name)
        if code_en == 0 and not _read_csv(ent_csv)[0]["entropy"] > 0.0:
            res.failures.append("analysis: entropy is not positive")
        res.fingerprint = b"".join(blobs)
        return res


def run_op(wl, fx: Fixture, out: str, seed: int) -> OpResult:
    """One operation; an exception no check anticipated fails it, with its traceback."""
    t0 = time.perf_counter()
    try:
        return wl.op(fx, out, seed)
    except Exception:
        return OpResult(wall_s=time.perf_counter() - t0, failures=[traceback.format_exc()])


WORKLOADS = {
    "flow-1d": FlowWorkload(
        "flow-1d",
        lattice={"active_axes": [1], "points": 64, "period": 1.0, "stencil_order": 2},
        initial={"family": "rotation-field", "params": {"eps": 0.05}},
        steps=200, diag_cadence=100, checkpoint_cadence=100),
    "flow-3d": FlowWorkload(
        "flow-3d",
        lattice={"active_axes": [1, 2, 3], "points": 8, "period": 1.0, "stencil_order": 2},
        initial={"family": "random-smooth", "params": {"eps": 0.05, "kmax": 2}},
        steps=12, diag_cadence=12, checkpoint_cadence=6),
    "analysis": AnalysisWorkload(),
}
