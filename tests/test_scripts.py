import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

FLOW_CONFIG = {
    "lattice": {"active_axes": [1], "points": 16, "period": 1.0, "stencil_order": 2},
    "initial": {"family": "rotation-field", "params": {"eps": 0.05}, "seed": 1},
    "cfl": 0.1,
    "max_steps": 40,
    "diag_cadence": 10,
}


@pytest.mark.parametrize("script, args", [
    ("refinement_study.py", ["--sizes", "16", "32"]),
    ("theta_monotonicity_study.py", ["--points", "32", "--samples", "3", "--stride", "5"]),
    ("flow_experiment.py", ["--config", "{config}"]),
], ids=["refinement_study", "theta_monotonicity_study", "flow_experiment"])
def test_script_runs(tmp_path, script, args):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(FLOW_CONFIG))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script),
         *(a.format(config=config) for a in args)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    if script == "theta_monotonicity_study.py":
        assert float(re.search(r"K2 = (\S+)", proc.stdout).group(1)) >= 0
