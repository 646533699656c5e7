import json
import os
import subprocess
import sys

import numpy as np
import pytest

from spin7.flow import DIAG_COLUMNS
from spin7.storage import read_checkpoint

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


def test_verify_corrupted_table_fails_and_names_identity():
    proc = run_cli("verify", "--corrupt-octonion-table")
    assert proc.returncode == 1
    assert "FAILED" in proc.stderr
    # the first failing identity is named on stderr
    assert any(word in proc.stderr for word in ("composition", "contraction"))


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
], ids=["family", "profile", "eps-text", "eps-list", "axis", "integrator-euler",
        "integrator-rk4", "params-unknown-key", "params-constant", "checkpoint-cadence",
        "max-steps", "blowup-negative", "blowup-inf", "t-end-nan", "t-end-negative",
        "div-tol-nan", "div-tol-negative"])
def test_bad_config_exits_2_before_the_run(tmp_path, overrides):
    cfg = write_config(tmp_path, overrides)
    out = tmp_path / "o"
    proc = run_cli("flow", "run", "--config", cfg, "--out", str(out))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (out / "manifest.json").exists()


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
    ["theta", "--t0", "{t}"],
    ["theta", "--t0", "0"],
    ["theta", "--t0", "1.0", "--center", "a"],
    ["theta", "--t0", "1.0", "--center", "99"],
    ["theta", "--t0", "1.0", "--center", "-1"],
    ["soliton-check", "--x-seed", "-1"],
], ids=["entropy-sigma", "entropy-t-samples", "entropy-x-stride", "rescale-factor-0",
        "rescale-factor-nan", "theta-t0-at-state", "theta-t0-below-state",
        "theta-center", "theta-center-out-of-range", "theta-center-negative",
        "soliton-x-seed-negative"])
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
