"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see one
`ACCEPTANCE <n> PASS/FAIL` line per criterion.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from spin7 import verify
from spin7.algebra import (decompose4, diamond, endo_split, hodge_star4, pi7, pi21,
                           triple_contract, unpack4)
from spin7.flow import (FlowConfig, flow_step, initial_data, parabolic_rescale,
                        quartic_terms, run_flow, soliton_residual,
                        soliton_schedule, theta_functional, entropy,
                        torsion_evolution_residual)
from spin7.lattice import (LatticeSpec, bianchi_residual, div_torsion,
                           grid_coordinates, omega21_defect, ricci_residual,
                           scalar_residual, torsion)

from conftest import PHI0C

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def orders(errs):
    return [float(np.log2(errs[i] / errs[i + 1])) for i in range(len(errs) - 1)]


# ---------------------------------------------------------------------------


def test_criterion_01_identity_suite():
    t0 = time.time()
    results = verify.run_suite()
    elapsed = time.time() - t0
    pointwise = [r for r in results if "converge" not in r.name]
    worst = max(r.max_error for r in pointwise)
    order_checks = [r for r in results if "converge" in r.name]
    ok = (all(r.passed for r in results) and worst < 1e-10 and elapsed < 10.0
          and all(r.passed for r in order_checks))
    verdict(1, ok, f"identity suite: worst pointwise error {worst:.2e}, "
                   f"derivative identities at stencil order, {elapsed:.1f}s")


def test_criterion_02_representation_dimensions():
    # the parts of the 70 canonical basis forms span each summand
    lam_dims = [int(np.linalg.matrix_rank(p, tol=1e-8)) for p in decompose4(np.eye(70), PHI0C)]
    skew, sym0 = [], []
    for i in range(8):
        for j in range(i, 8):
            m = np.zeros((8, 8))
            m[i, j] = m[j, i] = 1.0
            sym0.append(m - np.trace(m) / 8 * np.eye(8))
            if i != j:
                s = np.zeros((8, 8))
                s[i, j], s[j, i] = 1.0, -1.0
                skew.append(s)
    skew = np.array(skew)

    def rank(mats):
        return int(np.linalg.matrix_rank(
            np.array([diamond(np.asarray(m), PHI0C) for m in mats]), tol=1e-8))

    dia_dims = (rank([np.eye(8)]), rank(sym0), rank(pi7(skew, PHI0C)),
                rank(pi21(skew, PHI0C)))
    ok = lam_dims == [1, 7, 27, 35] and dia_dims == (1, 35, 7, 0)
    verdict(2, ok, f"eigenspace dims {lam_dims}, diamond image dims {dia_dims}")


def test_criterion_03_diamond_calculus():
    rng = np.random.default_rng(3)
    errs = []
    errs.append(float(np.abs(diamond(np.eye(8), PHI0C) - 4 * PHI0C).max()))
    for _ in range(20):
        a = rng.standard_normal((8, 8))
        b = rng.standard_normal((8, 8))
        abar = 0.25 * np.trace(a) * np.eye(8) - a.T
        errs.append(float(np.abs(hodge_star4(diamond(a, PHI0C))
                                 - diamond(abar, PHI0C)).max()))
        tr_a, a0, a7, _ = endo_split(a, PHI0C)
        tr_b, b0, b7, _ = endo_split(b, PHI0C)
        lhs = diamond(a, PHI0C) @ diamond(b, PHI0C)
        rhs = 3.5 * tr_a * tr_b + 4 * np.trace(a0 @ b0) - 16 * np.trace(a7 @ b7)
        errs.append(abs(lhs - rhs))
        errs.append(float(np.abs(triple_contract(diamond(a7, PHI0C), PHI0C)
                                 - 96 * a7).max()))
    worst = max(errs)
    verdict(3, worst < 1e-10, f"diamond calculus worst error {worst:.2e}")


def test_criterion_04_torsion_correctness():
    t0 = time.time()
    spec0 = LatticeSpec(active_axes=(0,), points=16)
    phi_const = np.broadcast_to(PHI0C, spec0.grid_shape + (70,)).copy()
    exact_zero = float(np.abs(torsion(spec0, phi_const)).max())

    recon_errs, defect_floor, div_defects = [], [], []
    for n in (16, 32, 64):
        spec = LatticeSpec(active_axes=(0,), points=n)
        st = initial_data("rotation-field", {"eps": 0.05}, spec, seed=1)
        t = torsion(spec, st.phi)
        phi_d = st.phi_dense()
        from spin7.lattice import fd_gradient_generic
        grad = unpack4(fd_gradient_generic(spec, st.phi))[:, 0]
        tm = t[:, 0]
        recon = (np.einsum("xip,xpjkl->xijkl", tm, phi_d)
                 + np.einsum("xjp,xipkl->xijkl", tm, phi_d)
                 + np.einsum("xkp,xijpl->xijkl", tm, phi_d)
                 + np.einsum("xlp,xijkp->xijkl", tm, phi_d))
        recon_errs.append(float(np.abs(recon - grad).max()))
        defect_floor.append(omega21_defect(spec, t, st.phi))
        # the pointwise 21-defect of the torsion vanishes identically (the
        # triple contraction is equivariant), so the measurable stencil-order
        # defect lives in the unprojected divergence of multi-generator data
        st2 = initial_data("random-smooth", {"eps": 0.05, "kmax": 2}, spec, seed=3)
        t2 = torsion(spec, st2.phi)
        raw = div_torsion(spec, t2)
        proj = pi7(raw, st2.phi)
        div_defects.append(float(np.abs(raw - proj).max()))
    elapsed = time.time() - t0
    recon_orders = orders(recon_errs)
    defect_orders = orders(div_defects)
    ok = (exact_zero == 0.0
          and all(abs(p - 2) < 0.2 for p in recon_orders)
          and max(defect_floor) < 1e-13
          and all(abs(p - 2) < 0.2 for p in defect_orders)
          and elapsed < 60.0)
    verdict(4, ok, f"constant-field T = {exact_zero}, reconstruction orders "
                   f"{[f'{p:.2f}' for p in recon_orders]}, torsion 21-defect at "
                   f"round-off ({max(defect_floor):.1e}), divergence defect orders "
                   f"{[f'{p:.2f}' for p in defect_orders]}, {elapsed:.0f}s")


def test_criterion_05_flat_space_residuals():
    """One active axis makes these residuals vanish identically, so the
    orders are measured on two active axes (same N refinement)."""
    rng = np.random.default_rng(5)
    eb, er, es = [], [], []
    for n in (16, 32, 64):
        spec = LatticeSpec(active_axes=(0, 1), points=n)
        st = initial_data("random-smooth", {"eps": 0.05, "kmax": 2}, spec, seed=11)
        t = torsion(spec, st.phi)
        eb.append(bianchi_residual(spec, t))
        er.append(ricci_residual(spec, t))
        es.append(scalar_residual(spec, t))
    ob, orc, osc = orders(eb)[-1], orders(er)[-1], orders(es)[-1]

    spec1 = LatticeSpec(active_axes=(0,), points=32)
    st1 = initial_data("rotation-field", {"eps": 0.05}, spec1, seed=1)
    t1 = torsion(spec1, st1.phi)
    degenerate = max(bianchi_residual(spec1, t1), ricci_residual(spec1, t1))

    # negative control: injected 21-summand noise does not decay
    spec_c, st_c = LatticeSpec(active_axes=(0, 1), points=32), None
    st_c = initial_data("random-smooth", {"eps": 0.05, "kmax": 2}, spec_c, seed=11)
    t_c = torsion(spec_c, st_c.phi)
    noise = rng.standard_normal((8, 8))
    wave = np.sin(2 * np.pi * grid_coordinates(spec_c)[0] / spec_c.period)
    t_c[..., 0, :, :] += (0.3 * wave)[..., None, None] * pi21(noise - noise.T,
                                                              st_c.phi)
    control = bianchi_residual(spec_c, t_c)
    ok = (abs(ob - 2) < 0.2 and abs(orc - 2) < 0.2 and abs(osc - 2) < 0.2
          and degenerate < 1e-13 and control > 10 * eb[1])
    verdict(5, ok, f"two-axis orders bianchi {ob:.2f}, ricci {orc:.2f}, "
                   f"scalar {osc:.2f}; one-axis residuals identically "
                   f"{degenerate:.1e}; 21-noise control {control:.2e} stays O(1)")


def test_criterion_06_gradient_flow_structure():
    t_start = time.time()
    spec = LatticeSpec(active_axes=(0,), points=32)
    st = initial_data("rotation-field", {"eps": 0.05}, spec, seed=1)
    t = torsion(spec, st.phi)
    direction = pi7(div_torsion(spec, t), st.phi)
    from spin7.flow import energy_gradient_check
    rel = energy_gradient_check(st, direction, eps=1e-5)

    # |dE/dt + int |Div T|^2| <= C1 dt + C2 h^p: misfit shrinks with (dt, h)
    misfit = {}
    for n in (32, 64):
        spec_n = LatticeSpec(active_axes=(0,), points=n)
        cfg = FlowConfig(spec=spec_n, family="rotation-field", params={"eps": 0.05},
                         seed=1, max_steps=20, diag_cadence=1)
        res = run_flow(cfg)
        worst = max(abs(r.dEdt - r.negDivT2) / max(abs(r.negDivT2), 1e-30)
                    for r in res.records[1:])
        misfit[n] = worst

    # energy monotone on every shipped example config; the driven runs also
    # end with a smaller divergence than they started with
    monotone = {}
    div_shrinks = True
    for cfg_path in sorted(CONFIG_DIR.glob("*.json")):
        raw = json.loads(cfg_path.read_text())
        from spin7.cli import parse_config
        res = run_flow(parse_config(raw))
        es = [r.E for r in res.records]
        monotone[cfg_path.stem] = all(
            es[i + 1] <= es[i] + 1e-12 * max(1.0, es[0]) for i in range(len(es) - 1))
        if res.records[0].negDivT2 < 0:
            div_shrinks &= abs(res.records[-1].negDivT2) < abs(res.records[0].negDivT2)
    elapsed = time.time() - t_start
    ok = (rel < 1e-4 and misfit[64] < 0.5 * misfit[32] and all(monotone.values())
          and div_shrinks and elapsed < 300.0)
    verdict(6, ok, f"gradient check {rel:.2e}; budget misfit {misfit[32]:.2e} -> "
                   f"{misfit[64]:.2e} under refinement; monotone (and divergence "
                   f"shrinking) on {sorted(monotone)} in {elapsed:.0f}s")


def test_criterion_07_structure_preservation():
    spec = LatticeSpec(active_axes=(0,), points=16)
    cfg = FlowConfig(spec=spec, family="rotation-field", params={"eps": 0.1}, seed=1,
                     max_steps=10_000, diag_cadence=500, div_tol=0.0)
    res = run_flow(cfg)
    drift = max(r.metric_drift for r in res.records)
    defect = max(r.omega21_defect for r in res.records)
    steps = res.state.step
    ok = steps == 10_000 and drift < 1e-9 and defect < 1e-12
    verdict(7, ok, f"{steps} steps: metric drift {drift:.2e} < 1e-9, "
                   f"generator 21-defect {defect:.2e} < 1e-12")


def test_criterion_08_torsion_norm_evolution():
    rng = np.random.default_rng(8)
    t_rand = rng.standard_normal((8, 8, 8))
    t_rand = 0.5 * (t_rand - np.swapaxes(t_rand, -1, -2))
    q1 = q2 = 0.0
    for a in range(8):
        for m in range(8):
            for b in range(8):
                for p in range(8):
                    for c in range(8):
                        for q in range(8):
                            q1 += t_rand[a, b, p] * t_rand[m, b, c] \
                                * t_rand[a, p, q] * t_rand[m, q, c]
                            q2 += t_rand[a, b, p] * t_rand[m, b, c] \
                                * t_rand[a, c, q] * t_rand[m, p, q]
    oracle = 16.0 * (q1 + q2)
    quartic_err = abs(quartic_terms(t_rand) - oracle) / max(1.0, abs(oracle))

    residuals = []
    for n, warm in ((16, 3), (32, 12)):
        spec = LatticeSpec(active_axes=(0,), points=n)
        dt = 0.1 * spec.spacing**2
        st = initial_data("rotation-field", {"eps": 0.05}, spec, seed=1)
        for _ in range(warm):
            st = flow_step(st, dt)
        mid = flow_step(st, dt)
        nxt = flow_step(mid, dt)
        residuals.append(torsion_evolution_residual(st, mid, nxt))
    ok = quartic_err < 1e-12 and residuals[1] < 0.4 * residuals[0]
    verdict(8, ok, f"quartic transcription error {quartic_err:.2e}; evolution "
                   f"residual {residuals[0]:.2e} -> {residuals[1]:.2e} under "
                   f"joint (dt, h) refinement")


def test_criterion_09_rescaling_exactness():
    spec = LatticeSpec(active_axes=(0,), points=32)
    st = initial_data("rotation-field", {"eps": 0.05}, spec, seed=1)
    worst = 0.0
    details = []
    for c in (0.5, 2.0, 10.0):
        _, report = parabolic_rescale(st, c)
        worst = max(worst, max(report.values()))
        details.append(f"c={c:g}: {max(report.values()):.1e}")
    verdict(9, worst < 1e-12, "rescaling identities exact: " + ", ".join(details))


def test_criterion_10_theta_and_entropy():
    spec = LatticeSpec(active_axes=(0,), points=64)
    zero = initial_data("constant", {}, spec)
    z = theta_functional([zero], (32,), 1.0)[0]

    # bump at scale L/25 < L/16
    cfg_dt = 0.1 * spec.spacing**2
    st = initial_data("rotation-field",
                      {"eps": 0.08, "profile": "bump", "width": 0.04, "center": [0.5]},
                      spec, seed=5)
    nonzero = theta_functional([st], (32,), 1.0)[0]
    states = [st]
    for _ in range(2):
        cur = states[-1]
        for _ in range(40):
            cur = flow_step(cur, cfg_dt)
        states.append(cur)
    t0 = 2 * states[-1].t + 5e-4
    vals = theta_functional(states, (32,), t0)
    mono = bool(np.all(np.diff(vals) <= 1e-3 * np.abs(vals[:-1])))
    scale_errs = []
    for c in (0.5, 2.0):
        rescaled = [parabolic_rescale(s, c)[0] for s in states]
        vals_c = theta_functional(rescaled, (32,), c * c * t0)
        scale_errs.append(float(np.abs(vals_c / vals - 1.0).max()))

    sigma = (spec.period / 8) ** 2
    e_coarse = entropy(st, sigma, t_samples=4, x_stride=4)
    e_fine_t = entropy(st, sigma, t_samples=8, x_stride=4)
    e_fine_x = entropy(st, sigma, t_samples=4, x_stride=2)
    ok = (z == 0.0 and nonzero > 0.0 and mono and max(scale_errs) < 1e-3
          and e_fine_t >= e_coarse - 1e-15 and e_fine_x >= e_coarse - 1e-15)
    verdict(10, ok, f"theta zero iff torsion-free; monotone on bump run; scale "
                    f"invariance {max(scale_errs):.1e} < 1e-3; entropy sampling "
                    f"monotone ({e_coarse:.3e} -> {max(e_fine_t, e_fine_x):.3e})")


def test_criterion_11_soliton_machinery():
    sched_err = max(soliton_schedule(c, 0.5).check_invariants() for c in (-1, 0, 1))
    s1 = soliton_schedule(1, 0.5)
    s0 = soliton_schedule(0, 1.0)
    sm = soliton_schedule(-1, 1.0)
    printed = (s1.t_hat == -1.0 and float(s1.alpha(-1.0)) == 1.0
               and float(s1.rho(np.array(-4.0))) == 2.0
               and s0.t_hat == 0.0 and float(s0.rho(0.0)) == 1.0
               and float(s0.alpha(5.0)) == 1.0
               and sm.t_hat == 2.0 and float(sm.alpha(2.0)) == 1.0)

    spec = LatticeSpec(active_axes=(0,), points=16)
    zero_state = initial_data("constant", {}, spec)
    x0 = np.zeros(spec.grid_shape + (8,))
    r_zero = soliton_residual(zero_state, x0)

    st = initial_data("rotation-field", {"eps": 0.05}, spec, seed=1)
    t = torsion(spec, st.phi)
    div = pi7(div_torsion(spec, t), st.phi)
    r_general = soliton_residual(st, x0)
    matches_div = r_general == float(np.abs(div).max())
    ok = sched_err < 1e-12 and printed and r_zero == 0.0 and matches_div
    verdict(11, ok, f"schedule invariants {sched_err:.1e}; residual 0 on "
                    f"torsion-free; equals sup|Div T| = {r_general:.3e} for X=0")


def test_criterion_12_reproducibility(tmp_path):
    config = {
        "lattice": {"active_axes": [1], "points": 16, "period": 1.0,
                    "stencil_order": 2},
        "initial": {"family": "rotation-field", "params": {"eps": 0.05}, "seed": 1},
        "cfl": 0.1, "max_steps": 40, "diag_cadence": 10, "checkpoint_cadence": 20,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))

    def run(out, threads):
        import os
        env = dict(os.environ, SPIN7_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "spin7.cli", "flow", "run", "--config",
             str(cfg_path), "--out", str(out)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        return (out / "series.csv").read_bytes()

    series = [run(tmp_path / f"t{n}", n) for n in ("1", "2", "8")]
    same_threads = series[0] == series[1] == series[2]

    proc = subprocess.run(
        [sys.executable, "-m", "spin7.cli", "flow", "resume", "--checkpoint",
         str(tmp_path / "t1" / "ckpt_00000020.s7fl"), "--out", str(tmp_path / "res")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    full_lines = series[0].decode().splitlines()
    res_lines = (tmp_path / "res" / "series.csv").read_text().splitlines()
    resumed_match = full_lines[-(len(res_lines) - 1):] == res_lines[1:]
    ok = same_threads and resumed_match
    verdict(12, ok, f"series identical across 1/2/8 threads ({same_threads}) "
                    f"and across a resume boundary ({resumed_match})")
