import functools
import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from spin7 import flow, verify
from spin7.algebra import DegenerateFormError
from spin7.cli import main
from spin7.flow import DIAG_COLUMNS
from spin7.octonion import OCT_TABLE
from spin7.storage import read_checkpoint, write_checkpoint

SMALL_CONFIG = {
    "lattice": {"active_axes": [1], "points": 16, "period": 1.0, "stencil_order": 2},
    "initial": {"family": "rotation-field", "params": {"eps": 0.05}, "seed": 1},
    "cfl": 0.1,
    "max_steps": 40,
    "diag_cadence": 10,
    "checkpoint_cadence": 20,
}


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "spin7.cli", *args],
                          capture_output=True, text=True, env=env)


def write_config(tmp_path, overrides=None, name="cfg.json"):
    cfg = json.loads(json.dumps(SMALL_CONFIG))
    if overrides:
        cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# ---------------------------------------------------------------------------
# verify


def test_verify_passes():
    proc = run_cli("verify")
    assert proc.returncode == 0, proc.stderr
    assert "ok" in proc.stdout
    assert "FAIL" not in proc.stdout


def test_verify_json():
    proc = run_cli("verify", "--json")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert all(entry["passed"] for entry in report)
    assert any("42" in entry["name"] for entry in report)


def test_verify_corrupted_table_fails_and_names_identity(monkeypatch, capsys):
    table = OCT_TABLE.copy()
    table[3, 5] = -table[3, 5]  # break one product
    monkeypatch.setattr(verify, "run_suite",
                        functools.partial(verify.run_suite, octonion_table=table))
    assert main(["verify"]) == 1
    err = capsys.readouterr().err
    assert "FAILED" in err
    # the first failing identity is named on stderr
    assert any(word in err for word in ("composition", "contraction"))


# ---------------------------------------------------------------------------
# flow run


def test_flow_run_constant(tmp_path):
    cfg = write_config(tmp_path, {"initial": {"family": "constant", "params": {},
                                              "seed": 0}})
    out = tmp_path / "out"
    proc = run_cli("flow", "run", "--config", cfg, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    lines = (out / "series.csv").read_text().splitlines()
    assert lines[0] == ("t,E,dEdt,negDivT2,maxT,bianchi,ricci,scalar,"
                        "metric_drift,omega21_defect")
    for line in lines[1:]:
        assert float(line.split(",")[1]) == 0.0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_reason"] == "converged"


def test_flow_run_unknown_key(tmp_path):
    cfg = write_config(tmp_path, {"timestep": 0.1})
    proc = run_cli("flow", "run", "--config", cfg, "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert "timestep" in proc.stderr


def test_flow_run_unknown_nested_key(tmp_path):
    raw = json.loads(json.dumps(SMALL_CONFIG))
    raw["lattice"]["spacing"] = 0.1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    proc = run_cli("flow", "run", "--config", str(path), "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert "spacing" in proc.stderr


def test_flow_run_missing_config(tmp_path):
    proc = run_cli("flow", "run", "--config", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "o"))
    assert proc.returncode == 2


def test_flow_run_invalid_cfl(tmp_path):
    cfg = write_config(tmp_path, {"cfl": 1.5})
    proc = run_cli("flow", "run", "--config", cfg, "--out", str(tmp_path / "o"))
    assert proc.returncode == 2
    assert "cfl" in proc.stderr


def _initial(family="rotation-field", **params):
    return {"initial": {"family": family, "params": params, "seed": 1}}


@pytest.mark.parametrize("overrides", [
    _initial("bogus"),
    _initial(profile="square"),
    _initial(eps="abc"),
    _initial(eps=[1]),
    _initial(axis=5),
    {"integrator": "euler"},
    {"integrator": "rk4"},
    _initial("random-smooth", epsilon=0.5, kmaxx=9),
    _initial("constant", eps=0.1),
    {"checkpoint_cadence": -1},
    {"max_steps": -3},
    {"blowup_factor": -1},
    {"blowup_factor": float("inf")},
    {"t_end": float("nan"), "max_steps": None},
    {"t_end": -1.0},
    {"div_tol": float("nan")},
    {"div_tol": -1e-8},
    _initial(profile="bump", center=[0.5, 0.5]),
    _initial(profile="bump", center=[]),
    {"initial": []},
    {"initial": 5},
    {"lattice": 5},
    {"initial": {"family": "rotation-field", "params": [["eps", 0.1]], "seed": 1}},
    {"lattice": dict(SMALL_CONFIG["lattice"], active_axes=[1.5])},
    {"lattice": dict(SMALL_CONFIG["lattice"], active_axes=[True])},
    {"lattice": dict(SMALL_CONFIG["lattice"], points=16.5)},
    {"max_steps": True},
    {"max_steps": 2.7},
    {"diag_cadence": 2.5},
    {"checkpoint_cadence": True},
    {"cfl": "0.1"},
    {"cfl": True},
    {"initial": {"family": "rotation-field", "params": {"eps": 0.05}, "seed": 1.5}},
    _initial(axis=-1),
    _initial(axis=0.5),
    _initial("bryant-wave", axis=-1),
    _initial(eps="0.05"),
    _initial(profile="bump", center=[True]),
    _initial(eps=1e300),
    {"t_end": 10**400},
    {"lattice": dict(SMALL_CONFIG["lattice"], period=10**400)},
    {"lattice": dict(SMALL_CONFIG["lattice"], active_axes=[1, 2, 3], points=100000)},
    _initial(width=0.1),
    _initial(profile="bump", mode=2),
    _initial("random-smooth", n_generators=-3),
    _initial("random-smooth", kmax=0),
    _initial(profile="bump", width=0),
    {"lattice": dict(SMALL_CONFIG["lattice"], period=1e-300)},
    {"cfl": 5e-324},
    {"lattice": dict(SMALL_CONFIG["lattice"], period=1e50)},
    {"lattice": dict(SMALL_CONFIG["lattice"], period=1e-50)},
    {"cfl": None},
    {"div_tol": None},
    _initial([1]),
    _initial(profile="bump", center=0.5),
], ids=["family", "profile", "eps-text", "eps-list", "axis", "integrator-euler",
        "integrator-rk4", "params-unknown-key", "params-constant", "checkpoint-cadence",
        "max-steps", "blowup-negative", "blowup-inf", "t-end-nan", "t-end-negative",
        "div-tol-nan", "div-tol-negative", "bump-center-long", "bump-center-short",
        "initial-list", "initial-number", "lattice-number", "params-list",
        "axes-fraction", "axes-bool", "points-fraction", "max-steps-bool",
        "max-steps-fraction", "diag-cadence-fraction", "checkpoint-cadence-bool",
        "cfl-text", "cfl-bool", "seed-fraction", "axis-negative", "axis-fraction",
        "bryant-axis-negative", "eps-numeric-text", "bump-center-bool", "eps-1e300",
        "t-end-401-digits", "period-401-digits", "points-7-pib", "sine-width", "bump-mode",
        "n-generators-negative", "kmax-0", "bump-width-0", "period-1e-300", "dt-underflow",
        "period-1e50", "period-1e-50", "cfl-null", "div-tol-null", "family-list",
        "bump-center-number"])
def test_bad_config_exits_2_before_the_run(tmp_path, overrides):
    cfg = write_config(tmp_path, overrides)
    out = tmp_path / "o"
    proc = run_cli("flow", "run", "--config", cfg, "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert not (out / "manifest.json").exists()


def test_failure_during_the_run_aborts_with_exit_3(tmp_path, monkeypatch, capsys):
    """A record that raises after step 0 ends the run like a FlowAbort: the
    records made so far are flushed and the manifest names the abort."""
    real_record = flow._record

    def record(state, ev, prev):
        if state.step > 0:
            raise DegenerateFormError("degenerate 4-form: induced g(v,v)^2 not positive")
        return real_record(state, ev, prev)

    monkeypatch.setattr(flow, "_record", record)
    out = tmp_path / "out"
    assert main(["flow", "run", "--config", write_config(tmp_path), "--out", str(out)]) == 3
    # a library error keeps its type name in both reports
    assert "runtime abort: DegenerateFormError: degenerate" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_reason"].startswith("abort: DegenerateFormError: degenerate")
    rows = (out / "series.csv").read_text().splitlines()
    assert rows[0] == ",".join(DIAG_COLUMNS) and len(rows) == 2
    assert float(rows[1].split(",")[0]) == 0.0


# ---------------------------------------------------------------------------
# resume determinism


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("full")
    cfg = write_config(tmp)
    out = tmp / "out"
    proc = run_cli("flow", "run", "--config", cfg, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return out


def test_resume_reproduces_series_bitwise(full_run, tmp_path):
    out2 = tmp_path / "resumed"
    proc = run_cli("flow", "resume", "--checkpoint", str(full_run / "ckpt_00000020.s7fl"),
                   "--out", str(out2))
    assert proc.returncode == 0, proc.stderr
    full_lines = (full_run / "series.csv").read_text().splitlines()
    res_lines = (out2 / "series.csv").read_text().splitlines()
    assert res_lines[0] == full_lines[0]
    assert full_lines[-(len(res_lines) - 1):] == res_lines[1:]
    # final checkpoints agree bitwise
    a = (full_run / "ckpt_00000040.s7fl").read_bytes()
    b = (out2 / "ckpt_00000040.s7fl").read_bytes()
    assert a == b


def test_legacy_integrator_key(full_run, tmp_path):
    """`"integrator": "lie-euler"` is the only value left; a config or an
    embedded checkpoint config that carries it runs as one without it."""
    cfg = write_config(tmp_path, {"integrator": "lie-euler"})
    out = tmp_path / "out"
    proc = run_cli("flow", "run", "--config", cfg, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    full = (full_run / "series.csv").read_bytes()
    assert (out / "series.csv").read_bytes() == full
    resumed = tmp_path / "resumed"
    proc = run_cli("flow", "resume", "--checkpoint", str(out / "ckpt_00000020.s7fl"),
                   "--out", str(resumed))
    assert proc.returncode == 0, proc.stderr
    res_lines = (resumed / "series.csv").read_text().splitlines()
    assert full.decode().splitlines()[-(len(res_lines) - 1):] == res_lines[1:]


def test_thread_count_reproducibility(tmp_path):
    cfg = write_config(tmp_path)
    outputs = []
    for threads in ("1", "2", "8"):
        out = tmp_path / f"out{threads}"
        proc = run_cli("flow", "run", "--config", cfg, "--out", str(out),
                       env_extra={"SPIN7_THREADS": threads})
        assert proc.returncode == 0, proc.stderr
        outputs.append((out / "series.csv").read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]


def test_bad_thread_env(tmp_path):
    proc = run_cli("verify", env_extra={"SPIN7_THREADS": "many"})
    assert proc.returncode == 2


# ---------------------------------------------------------------------------
# analysis subcommands


def test_theta_zero_checkpoint(tmp_path):
    cfg = write_config(tmp_path, {"initial": {"family": "constant", "params": {},
                                              "seed": 0}})
    out = tmp_path / "o"
    run_cli("flow", "run", "--config", cfg, "--out", str(out))
    ckpts = sorted(out.glob("ckpt_*.s7fl"))
    csv = tmp_path / "theta.csv"
    proc = run_cli("theta", "--checkpoint", str(ckpts[0]), "--t0", "1.0",
                   "--out-csv", str(csv))
    assert proc.returncode == 0
    assert float(csv.read_text().splitlines()[1].split(",")[1]) == 0.0


def test_rescale_then_theta_invariance(full_run, tmp_path):
    ck = str(full_run / "ckpt_00000040.s7fl")
    base_csv = tmp_path / "base.csv"
    state_t = read_checkpoint(ck).state.t
    t0 = 2 * state_t + 1e-3
    proc = run_cli("theta", "--checkpoint", ck, "--t0", str(t0),
                   "--out-csv", str(base_csv))
    assert proc.returncode == 0, proc.stderr
    resc = tmp_path / "resc.s7fl"
    proc = run_cli("rescale", "--checkpoint", ck, "--factor", "2.0",
                   "--out-checkpoint", str(resc))
    assert proc.returncode == 0, proc.stderr
    resc_csv = tmp_path / "resc.csv"
    proc = run_cli("theta", "--checkpoint", str(resc), "--t0", str(4 * t0),
                   "--out-csv", str(resc_csv))
    assert proc.returncode == 0, proc.stderr
    v1 = float(base_csv.read_text().splitlines()[1].split(",")[1])
    v2 = float(resc_csv.read_text().splitlines()[1].split(",")[1])
    assert v2 == pytest.approx(v1, rel=1e-3)


def test_resume_of_rescaled_checkpoint_is_the_rescaled_run(full_run, tmp_path):
    """Rescaling by 2 maps the run onto the torus of period 2 exactly (every
    factor is a power of two), so its resumed series is the unscaled one
    with each column scaled, and the forms stay bit-identical."""
    resc = tmp_path / "resc.s7fl"
    proc = run_cli("rescale", "--checkpoint", str(full_run / "ckpt_00000020.s7fl"),
                   "--factor", "2", "--out-checkpoint", str(resc))
    assert proc.returncode == 0, proc.stderr
    out = tmp_path / "resumed"
    proc = run_cli("flow", "resume", "--checkpoint", str(resc), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    factor = {"t": 4.0, "E": 64.0, "dEdt": 16.0, "negDivT2": 16.0, "maxT": 0.5,
              "bianchi": 0.25, "ricci": 0.25, "scalar": 0.25, "metric_drift": 1.0,
              "omega21_defect": 0.25}
    full = np.loadtxt(full_run / "series.csv", delimiter=",", skiprows=1, ndmin=2)
    resumed = np.loadtxt(out / "series.csv", delimiter=",", skiprows=1, ndmin=2)
    assert len(resumed) == 2
    np.testing.assert_array_equal(
        resumed, full[-len(resumed):] * [factor[c] for c in DIAG_COLUMNS])
    a = read_checkpoint(str(full_run / "ckpt_00000040.s7fl"))
    b = read_checkpoint(str(out / "ckpt_00000040.s7fl"))
    assert a.state.phi.tobytes() == b.state.phi.tobytes()
    assert b.state.spec.period == 2.0 and b.state.t == 4.0 * a.state.t


@pytest.mark.parametrize("payload", ["doubled", "noisy"])
def test_resume_refuses_a_form_off_the_orbit(full_run, tmp_path, payload):
    """`2 Phi` induces the metric sqrt(2) I (drift 0.414), and a noisy form
    induces none; both are refused before the run starts."""
    loaded = read_checkpoint(str(full_run / "ckpt_00000020.s7fl"))
    phi = loaded.state.phi
    if payload == "doubled":
        phi = 2.0 * phi
    else:
        phi = phi + np.random.default_rng(3).standard_normal(phi.shape)
    bad = tmp_path / "bad.s7fl"
    write_checkpoint(str(bad), replace(loaded.state, phi=phi),
                     prev_record=loaded.prev_record, config_dict=loaded.config_dict)
    out = tmp_path / "out"
    proc = run_cli("flow", "resume", "--checkpoint", str(bad), "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert ("metric drift" if payload == "doubled" else "degenerate") in proc.stderr
    assert not (out / "manifest.json").exists()


def test_soliton_check_on_rescaled_checkpoint(full_run, tmp_path):
    ck = str(full_run / "ckpt_00000040.s7fl")
    resc = str(tmp_path / "resc.s7fl")
    assert run_cli("rescale", "--checkpoint", ck, "--factor", "2",
                   "--out-checkpoint", resc).returncode == 0
    residuals = []
    for path in (ck, resc):
        csv = tmp_path / "sol.csv"
        proc = run_cli("soliton-check", "--checkpoint", path, "--out-csv", str(csv))
        assert proc.returncode == 0, proc.stderr
        residuals.append(float(csv.read_text().splitlines()[1].split(",")[1]))
    assert residuals[1] == 0.25 * residuals[0]


@pytest.mark.parametrize("args", [
    ["entropy", "--sigma", "-1"],
    ["entropy", "--sigma", "0.01", "--t-samples", "0"],
    ["entropy", "--sigma", "0.01", "--x-stride", "0"],
    ["rescale", "--factor", "0", "--out-checkpoint", "{tmp}/r.s7fl"],
    ["rescale", "--factor", "nan", "--out-checkpoint", "{tmp}/r.s7fl"],
    ["rescale", "--factor", "1e200", "--out-checkpoint", "{tmp}/r.s7fl"],
    ["rescale", "--factor", "1e-200", "--out-checkpoint", "{tmp}/r.s7fl"],
    ["theta", "--t0", "{t}"],
    ["theta", "--t0", "0"],
    ["theta", "--t0", "1.0", "--center", "a"],
    ["theta", "--t0", "1.0", "--center", "99"],
    ["theta", "--t0", "1.0", "--center", "-1"],
    ["soliton-check", "--x-seed", "-1"],
    ["entropy", "--sigma", "0.01", "--t-samples", "2000"],
    ["theta", "--t0", "inf"],
], ids=["entropy-sigma", "entropy-t-samples", "entropy-x-stride", "rescale-factor-0",
        "rescale-factor-nan", "rescale-factor-overflow", "rescale-factor-underflow",
        "theta-t0-at-state", "theta-t0-below-state",
        "theta-center", "theta-center-out-of-range", "theta-center-negative",
        "soliton-x-seed-negative", "entropy-scale-underflow", "theta-t0-inf"])
def test_bad_arguments_exit_2(full_run, tmp_path, args):
    ck = str(full_run / "ckpt_00000040.s7fl")
    t = repr(read_checkpoint(ck).state.t)
    args = [a.format(tmp=tmp_path, t=t) for a in args]
    if args[0] != "rescale":
        args += ["--out-csv", str(tmp_path / "x.csv")]
    proc = run_cli(*args, "--checkpoint", ck)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr


def test_soliton_check_matches_divergence(full_run, tmp_path):
    ck = str(full_run / "ckpt_00000040.s7fl")
    csv = tmp_path / "sol.csv"
    proc = run_cli("soliton-check", "--checkpoint", ck, "--out-csv", str(csv))
    assert proc.returncode == 0, proc.stderr
    residual = float(csv.read_text().splitlines()[1].split(",")[1])
    from spin7.flow import soliton_residual
    state = read_checkpoint(ck).state
    x = np.zeros(state.spec.grid_shape + (8,))
    assert residual == soliton_residual(state, x)


def test_entropy_command(full_run, tmp_path):
    ck = str(full_run / "ckpt_00000040.s7fl")
    csv = tmp_path / "ent.csv"
    proc = run_cli("entropy", "--checkpoint", ck, "--sigma", "0.01",
                   "--t-samples", "4", "--x-stride", "4", "--out-csv", str(csv))
    assert proc.returncode == 0, proc.stderr
    val = float(csv.read_text().splitlines()[1].split(",")[1])
    assert val > 0


@pytest.mark.parametrize("args", [
    ["theta", "--t0", "1e6"],
    ["entropy", "--sigma", "1e7"],
], ids=["theta-t0-1e6", "entropy-sigma-1e7"])
def test_wide_heat_kernels_give_finite_values(full_run, tmp_path, args):
    """Scales far beyond the period, where the heat kernel is the uniform
    density and the image sum would need millions of images."""
    csv = tmp_path / "out.csv"
    proc = run_cli(*args, "--checkpoint", str(full_run / "ckpt_00000040.s7fl"),
                   "--out-csv", str(csv))
    assert proc.returncode == 0, proc.stderr
    assert np.isfinite(float(csv.read_text().splitlines()[1].split(",")[1]))


def test_theta_incompatible_lattices(full_run, tmp_path):
    other_cfg = write_config(tmp_path, {"lattice": {"active_axes": [1], "points": 8,
                                                    "period": 1.0, "stencil_order": 2},
                                        "max_steps": 5, "checkpoint_cadence": 5})
    out = tmp_path / "other"
    run_cli("flow", "run", "--config", other_cfg, "--out", str(out))
    ck1 = str(full_run / "ckpt_00000040.s7fl")
    ck2 = str(sorted(out.glob("ckpt_*.s7fl"))[0])
    proc = run_cli("theta", "--checkpoint", ck1, ck2, "--t0", "1.0",
                   "--out-csv", str(tmp_path / "x.csv"))
    assert proc.returncode == 2
    assert "incompatible" in proc.stderr


def test_corrupt_checkpoint_rejected(tmp_path):
    bad = tmp_path / "bad.s7fl"
    bad.write_bytes(b"JUNKJUNKJUNK")
    proc = run_cli("theta", "--checkpoint", str(bad), "--t0", "1.0",
                   "--out-csv", str(tmp_path / "x.csv"))
    assert proc.returncode == 2


def test_flow_run_unwritable_out(tmp_path):
    cfg = write_config(tmp_path)
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    proc = run_cli("flow", "run", "--config", cfg, "--out", str(blocker / "sub"))
    assert proc.returncode == 3
    assert "i/o" in proc.stderr
