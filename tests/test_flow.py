import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from spin7 import flow, lattice
from spin7.algebra import diamond, pi7, pi21
from spin7.flow import (FlowAbort, FlowConfig, FlowState, convexity_gap, energy_gradient_check,
                        entropy, evaluate, flow_step, initial_data, metric_drift,
                        parabolic_rescale, quartic_terms, run_flow, soliton_residual,
                        soliton_schedule, theta_functional,
                        torsion_evolution_residual)
from spin7.heat import heat_weights
from spin7.lattice import LatticeSpec, div_torsion, energy, torsion
from spin7.orbit import rotate_form, so8_exp

from conftest import PHI0C, unit_pi7_generator


def small_spec(n=16, order=2):
    return LatticeSpec(active_axes=(0,), points=n, stencil_order=order)


# ---------------------------------------------------------------------------
# initial data


def test_constant_family_zero_energy():
    spec = small_spec()
    st = initial_data("constant", {}, spec)
    t = torsion(spec, st.phi)
    assert np.abs(t).max() == 0.0
    assert energy(spec, t) == 0.0


def test_rotation_energy_quadratic_in_amplitude():
    spec = small_spec(32)
    es = []
    for eps in (1e-3, 2e-3, 4e-3):
        st = initial_data("rotation-field", {"eps": eps}, spec, seed=1)
        es.append(energy(spec, torsion(spec, st.phi)))
    assert es[0] > 0
    assert es[1] / es[0] == pytest.approx(4.0, rel=1e-3)
    assert es[2] / es[1] == pytest.approx(4.0, rel=1e-3)


@pytest.mark.parametrize("family,params", [
    ("constant", {}),
    ("rotation-field", {"eps": 0.05}),
    ("rotation-field", {"eps": 0.08, "profile": "bump", "width": 0.06, "center": [0.5]}),
    ("bryant-wave", {"eps": 0.4}),
    ("random-smooth", {"eps": 0.04, "kmax": 2}),
])
def test_families_admissible_and_deterministic(family, params):
    spec = small_spec()
    st1 = initial_data(family, params, spec, seed=9)
    st2 = initial_data(family, params, spec, seed=9)
    np.testing.assert_array_equal(st1.phi, st2.phi)
    assert metric_drift(st1) < 1e-8


def test_unknown_family():
    with pytest.raises(ValueError):
        initial_data("vortex", {}, small_spec())


def rotated_initial_form(family, params, spec, seed):
    """The initial form by rotating Phi0 with so8_exp and rotate_form: the
    construction `initial_data` replaced by spinor squares, rebuilt here on
    the same draws of the same generator."""
    rng = np.random.default_rng(seed)
    if family == "rotation-field":
        gen = unit_pi7_generator(rng)
        params = dict(params)
        theta = flow._profile(spec, params.pop("profile", "sine"), params)
        return rotate_form(so8_exp(theta[..., None, None] * gen), PHI0C)
    a_field = np.zeros(spec.grid_shape + (8, 8))
    for _ in range(params.get("n_generators", 3)):
        gen = unit_pi7_generator(rng)
        phase = np.zeros(spec.grid_shape)
        for x in lattice.grid_coordinates(spec):
            k = int(rng.integers(1, params.get("kmax", 2) + 1))
            phase = phase + 2.0 * np.pi * k * x / spec.period + rng.uniform(0, 2 * np.pi)
        a_field = a_field + (params["eps"] * np.sin(phase))[..., None, None] * gen
    return rotate_form(so8_exp(a_field), PHI0C)


@pytest.mark.parametrize("family, params, axes, points", [
    ("rotation-field", {"eps": 0.6}, (0,), 32),
    ("rotation-field", {"eps": 3.0, "profile": "bump", "width": 0.1}, (0, 2), 12),
    ("random-smooth", {"eps": 0.3}, (0,), 32),
    ("random-smooth", {"eps": 0.3, "kmax": 3, "n_generators": 2}, (1, 2, 5), 6),
], ids=["sine", "bump-eps-3", "random-1-axis", "random-3-axes"])
def test_spinor_squares_match_the_rotated_cayley_form(family, params, axes, points):
    spec = LatticeSpec(active_axes=axes, points=points)
    for seed in (1, 7):
        np.testing.assert_allclose(initial_data(family, params, spec, seed).phi,
                                   rotated_initial_form(family, params, spec, seed),
                                   rtol=0, atol=1e-14)


@pytest.mark.parametrize("family, eps", [("rotation-field", 1e8), ("random-smooth", 3e8),
                                         ("bryant-wave", 1e9)])
def test_initial_data_is_exact_at_large_angles(family, eps):
    st = initial_data(family, {"eps": eps}, small_spec(32), seed=3)
    assert metric_drift(st) < 1e-14


# ---------------------------------------------------------------------------
# stepping


@pytest.mark.parametrize("axes, points", [((0,), 64), ((0, 3), 16), ((1, 2, 5), 8)],
                         ids=["64", "16^2", "8^3"])
def test_step_commutes_with_the_lattice_symmetries(axes, points):
    """One step commutes bit for bit with a grid translation, the reversal
    i -> -i mod N of a grid axis and, on 2 and 3 axes, the swap of the first
    two grid axes (the divergence adds the axes in order, and only a + b = b + a
    holds bit for bit); and with a constant SO(8) rotation of the form's
    indices to round-off."""
    spec = LatticeSpec(active_axes=axes, points=points)
    phi = initial_data("random-smooth", {"eps": 0.3}, spec, seed=13).phi
    dt = 0.1 * spec.spacing**2

    def step(form):
        return flow_step(FlowState(spec=spec, phi=np.ascontiguousarray(form)), dt).phi

    stepped, last = step(phi), len(axes) - 1
    moves = [lambda p: np.roll(p, 3, axis=last)]
    moves += [lambda p, ax=ax: np.roll(np.flip(p, axis=ax), 1, axis=ax) for ax in {0, last}]
    if len(axes) > 1:
        moves.append(lambda p: np.swapaxes(p, 0, 1))
    for move in moves:
        np.testing.assert_array_equal(step(move(phi)), move(stepped))
    a = np.random.default_rng(5).standard_normal((8, 8))
    rot = so8_exp(a - a.T)
    np.testing.assert_allclose(step(rotate_form(rot, phi)), rotate_form(rot, stepped),
                               rtol=0, atol=1e-14)


def test_zero_torsion_is_fixed_point():
    spec = small_spec()
    st = initial_data("constant", {}, spec)
    st2 = flow_step(st, 1e-4)
    np.testing.assert_array_equal(st2.phi, st.phi)
    assert st2.step == 1


def test_step_consistency_with_diamond():
    """Central difference of the update across +-dt matches the
    infinitesimal action of the generator."""
    spec = small_spec(32)
    st = initial_data("rotation-field", {"eps": 0.05}, spec, seed=1)
    t = torsion(spec, st.phi)
    gen = pi7(div_torsion(spec, t), st.phi)
    dt = 1e-6
    plus = flow_step(st, dt).phi
    from spin7.orbit import rotate_form, so8_exp
    minus = rotate_form(so8_exp(-dt * gen), st.phi)
    fd = (plus - minus) / (2 * dt)
    expected = diamond(gen, st.phi)
    assert np.abs(fd - expected).max() < 1e-6 * max(1.0, np.abs(expected).max())


def test_energy_monotone_100_steps():
    spec = small_spec(32)
    cfg = FlowConfig(spec=spec, family="rotation-field", params={"eps": 0.05}, seed=1,
                     max_steps=100, diag_cadence=10)
    res = run_flow(cfg)
    es = [r.E for r in res.records]
    assert all(es[i + 1] <= es[i] + 1e-12 * max(1.0, es[0]) for i in range(len(es) - 1))


def test_raw_euler_drifts_lie_euler_does_not():
    """The componentwise Euler step phi + (dt Div T) <> phi leaves the orbit
    and metric_drift detects it; the Lie-Euler rotation step stays on it."""
    spec = small_spec(16)
    st = initial_data("rotation-field", {"eps": 0.1}, spec, seed=1)
    dt = 0.1 * spec.spacing**2
    lie, euler = st, st
    for _ in range(50):
        lie = flow_step(lie, dt)
        gen = evaluate(euler).gen
        euler = replace(euler, phi=euler.phi + diamond(dt * gen, euler.phi))
    assert metric_drift(lie) < 1e-12
    assert metric_drift(euler) > 10 * metric_drift(lie)


def test_flow_abort_on_nan():
    spec = small_spec()
    st = initial_data("rotation-field", {"eps": 0.05}, spec, seed=1)
    st.phi[0, 0] = np.nan
    with pytest.raises(FlowAbort):
        flow_step(st, 1e-5)


# ---------------------------------------------------------------------------
# gradient structure


def test_energy_gradient_zero_direction():
    spec = small_spec()
    st = initial_data("rotation-field", {"eps": 0.05}, spec, seed=1)
    x = np.zeros(spec.grid_shape + (8, 8))
    spec_t = torsion(spec, st.phi)
    div = pi7(div_torsion(spec, spec_t), st.phi)
    predicted = np.sum(div * x)
    assert predicted == 0.0


def test_energy_gradient_check_against_divergence():
    spec = small_spec(32)
    st = initial_data("rotation-field", {"eps": 0.05}, spec, seed=1)
    t = torsion(spec, st.phi)
    direction = pi7(div_torsion(spec, t), st.phi)
    rel = energy_gradient_check(st, direction, eps=1e-5)
    assert rel < 1e-4


def test_energy_gradient_stabiliser_direction(rng):
    """A pointwise 21-summand direction does not move the form: both the
    finite difference and the prediction vanish."""
    spec = small_spec(32)
    st = initial_data("rotation-field", {"eps": 0.05}, spec, seed=1)
    a = rng.standard_normal((8, 8))
    direction = pi21(np.broadcast_to(a - a.T, spec.grid_shape + (8, 8)),
                     st.phi)
    t = torsion(spec, st.phi)
    div = pi7(div_torsion(spec, t), st.phi)
    predicted = np.sum(div * direction)
    assert abs(predicted) < 1e-10
    from spin7.orbit import rotate_form, so8_exp
    eps = 1e-5
    moved = rotate_form(so8_exp(eps * direction), st.phi)
    e0 = energy(spec, t)
    e1 = energy(spec, torsion(spec, moved))
    assert abs(e1 - e0) < 1e-10 * max(1.0, e0)


def test_gradient_identity_budget_under_refinement():
    """|dE/dt + integral |Div T|^2| &lt;= C1 dt + C2 h^p with stable fitted
    constants across (N, dt) refinement."""
    misfits = {}
    for n in (32, 64):
        spec = small_spec(n)
        cfg = FlowConfig(spec=spec, family="rotation-field", params={"eps": 0.05},
                         seed=1, max_steps=20, diag_cadence=1)
        res = run_flow(cfg)
        worst = 0.0
        for k in range(1, len(res.records)):
            r = res.records[k]
            worst = max(worst, abs(r.dEdt - r.negDivT2) / max(abs(r.negDivT2), 1e-30))
        misfits[n] = worst
    # the budget at these resolutions is dominated by the O(dt) term of the
    # backward difference; dt scales like h^2 so the misfit drops ~4x
    assert misfits[64] < 0.5 * misfits[32]
    assert misfits[32] < 0.05


# ---------------------------------------------------------------------------
# torsion-norm evolution


def test_torsion_evolution_zero_state():
    spec = small_spec()
    st = initial_data("constant", {}, spec)
    states = [st, flow_step(st, 1e-5), flow_step(flow_step(st, 1e-5), 1e-5)]
    assert torsion_evolution_residual(*states) == 0.0


def test_quartic_terms_match_loop_oracle(rng):
    t = rng.standard_normal((8, 8, 8))
    t = 0.5 * (t - np.swapaxes(t, -1, -2))
    q1 = q2 = 0.0
    for a in range(8):
        for m in range(8):
            for b in range(8):
                for p in range(8):
                    for c in range(8):
                        for q in range(8):
                            q1 += t[a, b, p] * t[m, b, c] * t[a, p, q] * t[m, q, c]
                            q2 += t[a, b, p] * t[m, b, c] * t[a, c, q] * t[m, p, q]
    oracle = 16.0 * (q1 + q2)
    assert abs(quartic_terms(t) - oracle) < 1e-12 * max(1.0, abs(oracle))


def test_torsion_evolution_joint_refinement():
    residuals = []
    for n, substeps in ((16, 1), (32, 4)):
        spec = small_spec(n)
        cfg_dt = 0.1 * spec.spacing**2
        st = initial_data("rotation-field", {"eps": 0.05}, spec, seed=1)
        # advance a few steps to leave the initial transient
        for _ in range(3 * substeps):
            st = flow_step(st, cfg_dt)
        mid = flow_step(st, cfg_dt)
        nxt = flow_step(mid, cfg_dt)
        residuals.append(torsion_evolution_residual(st, mid, nxt))
    assert residuals[1] < 0.4 * residuals[0]


# ---------------------------------------------------------------------------
# localized functionals


def bump_states(n=64, steps=3, stride=40):
    spec = small_spec(n)
    cfg_dt = 0.1 * spec.spacing**2
    st = initial_data("rotation-field",
                      {"eps": 0.08, "profile": "bump", "width": 0.04, "center": [0.5]},
                      spec, seed=5)
    states = [st]
    for _ in range(steps - 1):
        cur = states[-1]
        for _ in range(stride):
            cur = flow_step(cur, cfg_dt)
        states.append(cur)
    return spec, states


def test_theta_zero_iff_zero_torsion():
    spec = small_spec()
    st = initial_data("constant", {}, spec)
    vals = theta_functional([st], (8,), t0=1.0)
    assert vals[0] == 0.0
    st2 = initial_data("rotation-field", {"eps": 0.05}, spec, seed=1)
    assert theta_functional([st2], (8,), t0=1.0)[0] > 0.0


def test_theta_requires_future_horizon():
    spec = small_spec()
    st = initial_data("constant", {}, spec)
    with pytest.raises(ValueError):
        theta_functional([st], (8,), t0=0.0)


def test_theta_small_time_limit():
    """As the horizon approaches, theta / tau tends to |T(x0)|^2 (kernel
    concentration); checked as a monotone trend toward the target."""
    spec = LatticeSpec(active_axes=(0,), points=128)
    st = initial_data("rotation-field",
                      {"eps": 0.08, "profile": "bump", "width": 0.06, "center": [0.5]},
                      spec, seed=5)
    t = torsion(spec, st.phi)
    tsq = np.einsum("xmab,xmab->x", t, t)
    peak = int(np.argmax(tsq))
    ratios = [theta_functional([st], (peak,), st.t + tau)[0] / (tau * tsq[peak])
              for tau in (1.6e-3, 4e-4, 1e-4)]
    assert ratios[0] < ratios[1] < ratios[2] <= 1.0 + 1e-9
    assert ratios[2] > 0.85


def test_theta_monotone_on_bump_run():
    spec, states = bump_states()
    t0 = states[-1].t * 2 + 1e-3
    vals = theta_functional(states, (32,), t0)
    assert np.all(np.diff(vals) <= 1e-3 * np.abs(vals[:-1]))


def test_theta_parabolic_scale_invariance():
    spec, states = bump_states(steps=2)
    t0 = states[-1].t * 2 + 5e-4
    base = theta_functional(states, (32,), t0)
    for c in (0.5, 2.0):
        rescaled = [parabolic_rescale(s, c)[0] for s in states]
        vals = theta_functional(rescaled, (32,), c * c * t0)
        np.testing.assert_allclose(vals, base, rtol=1e-3)


def test_entropy_zero_state():
    spec = small_spec()
    st = initial_data("constant", {}, spec)
    assert entropy(st, sigma=0.01, t_samples=4, x_stride=4) == 0.0


def test_entropy_sampling_monotone():
    spec, states = bump_states(n=32, steps=1)
    st = states[0]
    coarse = entropy(st, sigma=0.01, t_samples=4, x_stride=4)
    finer_t = entropy(st, sigma=0.01, t_samples=8, x_stride=4)
    finer_x = entropy(st, sigma=0.01, t_samples=4, x_stride=2)
    assert finer_t >= coarse - 1e-15
    assert finer_x >= coarse - 1e-15


def test_entropy_stride_stability():
    spec, states = bump_states(n=64, steps=1)
    st = states[0]
    sigma = (spec.period / 8) ** 2
    e2 = entropy(st, sigma=sigma, t_samples=8, x_stride=2)
    e1 = entropy(st, sigma=sigma, t_samples=8, x_stride=1)
    assert abs(e1 - e2) <= 0.01 * e1


def test_entropy_invalid_sigma():
    st = initial_data("constant", {}, small_spec())
    with pytest.raises(ValueError):
        entropy(st, sigma=0.0)


@pytest.mark.parametrize("kwargs", [{"t_samples": 0}, {"t_samples": -2},
                                    {"x_stride": 0}, {"x_stride": -1}])
def test_entropy_refuses_empty_sampling(kwargs):
    st = initial_data("rotation-field", {"eps": 0.05}, small_spec(), seed=1)
    with pytest.raises(ValueError, match="at least 1"):
        entropy(st, sigma=0.01, **kwargs)


def _entropy_loop(state, sigma, t_samples, x_stride):
    """Centre by centre and scale by scale, against each centre's weights."""
    spec = state.spec
    taus = sigma * np.power(2.0, -np.arange(t_samples, dtype=float)[::-1])
    tsq = lattice.torsion_norm_sq(evaluate(state).t_field)
    best = 0.0
    for cidx in np.ndindex(*(max(1, spec.points // x_stride),) * spec.n_axes):
        c = tuple(i * x_stride for i in cidx)
        for tau in taus:
            val = float(tau) * lattice.integrate(spec, tsq * heat_weights(spec, c, float(tau)))
            best = max(best, val)
    return best


@pytest.mark.parametrize("axes, points, x_stride, sigma", [
    ((0,), 64, 1, 1 / 64), ((0, 1), 16, 1, 1 / 64), ((0, 1), 16, 3, 0.01),
    ((0, 1), 16, 32, 0.01), ((2, 5), 12, 5, 0.5), ((0, 1, 2), 8, 2, 1e-3)])
def test_entropy_matches_the_centre_by_centre_loop(axes, points, x_stride, sigma):
    # x_stride 3 does not divide 16: the centres are 0, 3, ..., 12 per axis
    spec = LatticeSpec(active_axes=axes, points=points)
    st = initial_data("random-smooth", {"eps": 0.1}, spec, seed=4)
    got = entropy(st, sigma, t_samples=5, x_stride=x_stride)
    want = _entropy_loop(st, sigma, 5, x_stride)
    assert got > 0.0
    assert got == pytest.approx(want, rel=1e-15, abs=0)


def test_theta_refuses_a_centre_of_the_wrong_length():
    st = initial_data("rotation-field", {"eps": 0.05}, small_spec(), seed=1)
    for center in ((), (3, 4)):
        with pytest.raises(ValueError, match="one grid index per active axis"):
            theta_functional([st], center, t0=1.0)


def test_theta_matches_the_weights_and_wraps_the_centre():
    spec = LatticeSpec(active_axes=(0, 1), points=16)
    st = initial_data("random-smooth", {"eps": 0.1}, spec, seed=4)
    tsq = lattice.torsion_norm_sq(evaluate(st).t_field)
    tau = 0.02
    want = tau * lattice.integrate(spec, tsq * heat_weights(spec, (3, 15), tau))
    for center in ((3, 15), (19, -1)):
        got = theta_functional([st], center, st.t + tau)[0]
        assert got == pytest.approx(want, rel=1e-14, abs=0)


def _on_16_and_8_points():
    """A state on 16 points at t = 0 and one on 8 points at t = 1e-3."""
    a = initial_data("rotation-field", {"eps": 0.05}, small_spec(16), seed=1)
    b = initial_data("rotation-field", {"eps": 0.05}, small_spec(8), seed=1)
    return a, replace(b, t=1e-3)


@pytest.mark.parametrize("call, message", [
    (lambda st: entropy(st, float("inf")), "sigma"),
    (lambda st: entropy(st, 0.01, t_samples=2.5), "t_samples"),
    (lambda st: entropy(st, 0.01, x_stride=True), "x_stride"),
    (lambda st: theta_functional([st], (8,), t0=float("inf")), "t0"),
    (lambda st: theta_functional(_on_16_and_8_points(), (4,), t0=1.0), "incompatible"),
    (lambda st: parabolic_rescale(st, True), "rescale factor"),
    (lambda st: convexity_gap((*_on_16_and_8_points(), replace(st, t=2e-3))), "incompatible"),
    (lambda st: theta_functional([st], (1.5,), t0=1.0), "center"),
    (lambda st: theta_functional([st], (True,), t0=1.0), "center"),
    (lambda st: theta_functional([st], ("3",), t0=1.0), "center"),
    (lambda st: theta_functional([], (0,), t0=1.0), "at least one state"),
], ids=["entropy-sigma-inf", "entropy-t-samples-fraction", "entropy-x-stride-bool",
        "theta-t0-inf", "theta-mixed-lattices", "rescale-factor-bool",
        "convexity-gap-mixed-lattices", "theta-center-fraction", "theta-center-bool",
        "theta-center-string", "theta-no-states"])
def test_analysis_functions_check_their_arguments(call, message):
    """Called from Python, the analysis functions refuse what the command
    line refuses: numbers by `lattice.as_number`, states on two lattices."""
    st = initial_data("rotation-field", {"eps": 0.05}, small_spec(), seed=1)
    with pytest.raises(ValueError, match=message):
        call(st)


def test_entropy_refuses_an_underflowing_scale_before_it_allocates():
    """The smallest scale sigma * 2^(1 - t_samples) is tested before the
    t_samples scales are built (4,000,000 of them would take 61 MiB)."""
    st = initial_data("rotation-field", {"eps": 0.05}, small_spec(), seed=1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="underflows"):
            entropy(st, 0.01, t_samples=4_000_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# ---------------------------------------------------------------------------
# solitons


def test_soliton_schedule_expanding():
    s = soliton_schedule(c=1, p=0.5)
    assert s.t_hat == -1.0
    assert s.rho(np.array([-4.0]))[0] == 2.0
    assert float(s.alpha(s.t_hat)) == 1.0
    assert float(s.alpha(-2.0)) == 0.5  # -1/t at t=-2
    assert s.check_invariants() < 1e-12
    assert s.interval == (-np.inf, -1.0)


def test_soliton_schedule_steady():
    s = soliton_schedule(c=0, p=2.0)
    assert s.t_hat == 0.0
    assert float(s.rho(123.0)) == 1.0
    assert float(s.alpha(-7.0)) == 1.0
    assert s.check_invariants() == 0.0
    assert s.interval == (-np.inf, np.inf)


def test_soliton_schedule_shrinking():
    s = soliton_schedule(c=-1, p=1.0)
    assert s.t_hat == 2.0
    assert float(s.alpha(2.0)) == 1.0
    assert float(s.alpha(4.0)) == 0.5  # 2p/t
    assert float(s.rho(1.0)) == 1.0  # |t|^p with p=1
    assert s.check_invariants() < 1e-12
    assert s.interval == (2.0, np.inf)
    # the printed dilation vanishes at the origin, which sits outside the
    # validity interval: unit normalization there is unattainable for c != 0
    assert float(s.rho(0.0)) == 0.0


def test_soliton_schedule_validation():
    with pytest.raises(ValueError):
        soliton_schedule(c=2)
    with pytest.raises(ValueError):
        soliton_schedule(c=1, p=0.0)


def test_soliton_residual_zero_on_torsion_free():
    spec = small_spec()
    st = initial_data("constant", {}, spec)
    x = np.zeros(spec.grid_shape + (8,))
    assert soliton_residual(st, x) == 0.0


def test_soliton_residual_is_divergence_for_zero_field():
    spec = small_spec(32)
    st = initial_data("rotation-field", {"eps": 0.05}, spec, seed=1)
    x = np.zeros(spec.grid_shape + (8,))
    t = torsion(spec, st.phi)
    div = pi7(div_torsion(spec, t), st.phi)
    assert soliton_residual(st, x) == pytest.approx(float(np.abs(div).max()), abs=0.0)


def test_soliton_residual_negative_control():
    # a large vector field along the active axis hooks into the torsion slice
    spec = small_spec(32)
    st = initial_data("rotation-field", {"eps": 0.05}, spec, seed=1)
    x = np.zeros(spec.grid_shape + (8,))
    x[..., 0] = 100.0
    zero_res = soliton_residual(st, np.zeros(spec.grid_shape + (8,)))
    assert soliton_residual(st, x) > 3 * zero_res


@pytest.mark.parametrize("axes", [(1, 4), (0, 2, 7)])
def test_soliton_residual_matches_eight_slot_formula(axes, rng):
    """X . T over the stored slices equals the contraction with the torsion
    embedded to eight slots, for X random on all eight components."""
    spec = LatticeSpec(active_axes=axes, points=6)
    st = initial_data("random-smooth", {"eps": 0.2}, spec, seed=5)
    x = rng.standard_normal(spec.grid_shape + (8,))
    ev = evaluate(st)
    t8 = lattice._embed_m_axis(spec, ev.t_field, ev.t_field.ndim - 3)
    gx = lattice.fd_gradient_embedded(spec, x)
    ref = ev.gen - np.einsum("...m,...mab->...ab", x, t8) - pi7(
        0.5 * (gx - np.swapaxes(gx, -1, -2)), st.phi)
    assert soliton_residual(st, x) == pytest.approx(float(np.abs(ref).max()), rel=1e-13)


def test_soliton_residual_decreases_along_flow():
    spec = small_spec(32)
    cfg = FlowConfig(spec=spec, family="rotation-field", params={"eps": 0.05}, seed=1,
                     max_steps=400, diag_cadence=400)
    res = run_flow(cfg)
    x = np.zeros(spec.grid_shape + (8,))
    start = initial_data("rotation-field", {"eps": 0.05}, spec, seed=1)
    assert soliton_residual(res.state, x) < 0.5 * soliton_residual(start, x)


# ---------------------------------------------------------------------------
# parabolic rescaling


def test_rescale_identity_factor():
    st = initial_data("rotation-field", {"eps": 0.05}, small_spec(), seed=1)
    new, report = parabolic_rescale(st, 1.0)
    np.testing.assert_array_equal(new.phi, st.phi)
    assert max(report.values()) < 1e-14


@pytest.mark.parametrize("c", [0.5, 2.0, 10.0])
def test_rescale_exact_identities(c):
    st = initial_data("rotation-field", {"eps": 0.05}, small_spec(32), seed=1)
    new, report = parabolic_rescale(st, c)
    assert new.spec == replace(st.spec, period=c * st.spec.period)
    np.testing.assert_array_equal(new.phi, st.phi)
    assert new.t == c * c * st.t
    assert max(report.values()) < 1e-12


def test_rescale_componentwise_factor_half():
    spec = small_spec(32)
    st = initial_data("rotation-field", {"eps": 0.05}, spec, seed=1)
    t_old = torsion(spec, st.phi)
    new, _ = parabolic_rescale(st, 2.0)
    t_new = torsion(new.spec, new.phi)
    np.testing.assert_allclose(t_new, 0.5 * t_old, rtol=1e-13, atol=1e-16)


def test_rescale_rejects_nonpositive():
    st = initial_data("constant", {}, small_spec())
    with pytest.raises(ValueError):
        parabolic_rescale(st, 0.0)


# ---------------------------------------------------------------------------
# run_flow behaviour


def test_run_constant_converges_immediately():
    cfg = FlowConfig(spec=small_spec(), family="constant", params={}, max_steps=100)
    res = run_flow(cfg)
    assert res.exit_reason == "converged"
    assert res.state.step == 0
    assert all(r.E == 0.0 for r in res.records)


def test_run_blowup_guard():
    cfg = FlowConfig(spec=small_spec(), family="rotation-field", params={"eps": 0.05},
                     seed=1, max_steps=100, blowup_factor=1e-9)
    res = run_flow(cfg)
    assert res.exit_reason == "blowup_guard"


def test_run_deterministic():
    cfg = FlowConfig(spec=small_spec(), family="random-smooth", params={"eps": 0.04},
                     seed=12, max_steps=40, diag_cadence=5)
    r1, r2 = run_flow(cfg), run_flow(cfg)
    for a, b in zip(r1.records, r2.records):
        assert a.as_tuple() == b.as_tuple()
    np.testing.assert_array_equal(r1.state.phi, r2.state.phi)


def test_doubling_time_sanity():
    """sup |T| stays below twice its initial value for an early stretch."""
    spec = small_spec(32)
    cfg = FlowConfig(spec=spec, family="rotation-field", params={"eps": 0.05}, seed=1,
                     max_steps=200, diag_cadence=10)
    res = run_flow(cfg)
    m0 = res.records[0].maxT
    assert all(r.maxT <= 2 * m0 + 1e-15 for r in res.records)


def test_structure_preservation_short():
    spec = small_spec(16)
    cfg = FlowConfig(spec=spec, family="rotation-field", params={"eps": 0.1}, seed=1,
                     max_steps=300, diag_cadence=50)
    res = run_flow(cfg)
    assert max(r.metric_drift for r in res.records) < 1e-11
    assert max(r.omega21_defect for r in res.records) < 1e-12


# ---------------------------------------------------------------------------
# descriptive diagnostics


@pytest.mark.parametrize("check, power", [
    (convexity_gap, 2),
    (lambda sts: torsion_evolution_residual(*sts), -4),
    (lambda sts: soliton_residual(sts[1], np.zeros(sts[1].spec.grid_shape + (8,))), -2),
], ids=["convexity_gap", "torsion_evolution_residual", "soliton_residual"])
@pytest.mark.parametrize("c", [2.0, 1.5])
def test_checks_scale_on_rescaled_states(check, power, c):
    """A rescaled triple is an ordinary one on the larger torus: each check
    scales homogeneously, by c^power."""
    spec = small_spec()
    dt = 0.1 * spec.spacing**2
    st = initial_data("rotation-field", {"eps": 0.05}, spec, seed=1)
    states = (st, flow_step(st, dt), flow_step(flow_step(st, dt), dt))
    base = np.atleast_1d(check(states))
    scaled = np.atleast_1d(check(tuple(parabolic_rescale(x, c)[0] for x in states)))
    np.testing.assert_allclose(scaled, c**power * base, rtol=1e-12, atol=0)


def test_run_flow_evaluates_each_state_once(monkeypatch):
    calls = []
    real_torsion = lattice.torsion

    def counting_torsion(*args, **kwargs):
        calls.append(1)
        return real_torsion(*args, **kwargs)

    monkeypatch.setattr(lattice, "torsion", counting_torsion)
    cfg = FlowConfig(spec=small_spec(), params={"eps": 0.05}, seed=1, max_steps=6,
                     diag_cadence=2, checkpoint_cadence=3)
    res = run_flow(cfg)
    assert res.state.step == 6 and len(res.records) == 4
    assert len(calls) == 7  # states 0..6, each stepped or recorded from one evaluation


def test_convexity_gap_along_run():
    spec = small_spec(32)
    dt = 0.1 * spec.spacing**2
    st = initial_data("rotation-field", {"eps": 0.05}, spec, seed=1)
    for _ in range(10):
        st = flow_step(st, dt)
    mid = flow_step(st, dt)
    nxt = flow_step(mid, dt)
    lhs, rhs, gap = convexity_gap((st, mid, nxt))
    assert lhs > 0  # energy decays convexly toward the critical point here
    assert gap > -1e-8 * max(1.0, abs(lhs))


def test_type1_fit_recovers_exponent():
    from spin7.flow import fit_type1_exponent
    tau = 1.0
    ts = np.linspace(0.0, 0.9, 20)
    sup = (tau - ts) ** -0.5
    assert fit_type1_exponent(ts, sup, tau) == pytest.approx(-0.5, abs=1e-12)
    with pytest.raises(ValueError):
        fit_type1_exponent([2.0], [1.0], 1.0)


def test_pointwise_identities_hold_along_run(rng):
    """Spot-check at seeded grid points of a mid-run state: the pointwise
    contraction identities and the induced metric stay exact."""
    from spin7.algebra import metric_from_form
    spec = small_spec(16)
    cfg = FlowConfig(spec=spec, family="random-smooth", params={"eps": 0.05}, seed=4,
                     max_steps=60, diag_cadence=60)
    res = run_flow(cfg)
    pts = rng.integers(0, spec.points, size=3)
    phi_d = res.state.phi_dense()[pts]
    assert np.abs(np.einsum("xijkl,xijkl->x", phi_d, phi_d) - 336.0).max() < 1e-10
    contr = np.einsum("xijkl,xajkl->xia", phi_d, phi_d)
    assert np.abs(contr - 42 * np.eye(8)).max() < 1e-11
    assert np.abs(metric_from_form(phi_d) - np.eye(8)).max() < 1e-10


def test_run_stops_at_t_end():
    spec = small_spec(16)
    dt = 0.1 * spec.spacing**2
    cfg = FlowConfig(spec=spec, family="rotation-field", params={"eps": 0.05}, seed=1,
                     t_end=10.5 * dt, diag_cadence=5)
    res = run_flow(cfg)
    assert res.exit_reason == "t_end"
    assert res.state.step == 11
    assert cfg.t_end <= res.state.t < cfg.t_end + dt   # the step is not clipped
    assert res.records[-1].t == res.state.t


def test_config_requires_a_stop():
    with pytest.raises(ValueError):
        FlowConfig(spec=small_spec(), t_end=None, max_steps=None)


@pytest.mark.parametrize("kwargs", [{"max_steps": 2.5}, {"seed": 1.5}, {"diag_cadence": True},
                                    {"cfl": "0.1"}],
                         ids=["max-steps-fraction", "seed-fraction", "diag-cadence-bool",
                              "cfl-text"])
def test_config_reads_numbers_by_the_config_rule(kwargs):
    """A FlowConfig built from Python refuses what the JSON config refuses."""
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        FlowConfig(spec=small_spec(), **{"max_steps": 10, **kwargs})


def test_fourth_order_flow_run():
    spec = LatticeSpec(active_axes=(0,), points=32, stencil_order=4)
    cfg = FlowConfig(spec=spec, family="rotation-field", params={"eps": 0.05}, seed=1,
                     max_steps=80, diag_cadence=20)
    res = run_flow(cfg)
    es = [r.E for r in res.records]
    assert all(es[i + 1] <= es[i] + 1e-12 for i in range(len(es) - 1))
    assert max(r.metric_drift for r in res.records) < 1e-12
    assert max(r.omega21_defect for r in res.records) < 1e-13


def test_two_axis_flow_run():
    spec = LatticeSpec(active_axes=(0, 1), points=12)
    cfg = FlowConfig(spec=spec, family="random-smooth", params={"eps": 0.05, "kmax": 1},
                     seed=7, max_steps=30, diag_cadence=10)
    res = run_flow(cfg)
    es = [r.E for r in res.records]
    assert es[0] > 0
    assert all(es[i + 1] <= es[i] + 1e-12 for i in range(len(es) - 1))
    assert max(r.metric_drift for r in res.records) < 1e-12
    # localized functional works on the 2-axis grid too
    vals = theta_functional([res.state], (3, 9), res.state.t + 0.05)
    assert vals[0] > 0


def test_rescaling_commutes_with_stepping():
    """Stepping the rescaled state by c^2 dt equals rescaling the stepped
    state: the combined solution property of the scaling symmetry, exact
    on the lattice."""
    spec = small_spec(16)
    st = initial_data("rotation-field", {"eps": 0.1}, spec, seed=1)
    dt = 0.1 * spec.spacing**2
    for c in (0.5, 2.0):
        lhs = flow_step(parabolic_rescale(st, c)[0], c * c * dt)
        rhs = parabolic_rescale(flow_step(st, dt), c)[0]
        np.testing.assert_allclose(lhs.phi, rhs.phi, rtol=0, atol=1e-13)
        assert lhs.t == rhs.t and lhs.spec == rhs.spec


def test_gradient_budget_constants_stable():
    """Fit the misfit bound |dE/dt + int |Div T|^2| <= C1 dt + C2 h^p by
    varying cfl at fixed h (dt = cfl h^2 ties the terms otherwise); the
    fitted constants are stable under refinement, with the dt term
    dominating on this data."""
    def misfit(n, cfl):
        spec = small_spec(n)
        cfg = FlowConfig(spec=spec, family="rotation-field", params={"eps": 0.05},
                         seed=1, max_steps=12, diag_cadence=1, cfl=cfl)
        res = run_flow(cfg)
        return max(abs(r.dEdt - r.negDivT2) for r in res.records[1:])

    fitted = {}
    for n in (32, 64):
        h2 = small_spec(n).spacing ** 2
        m_lo, m_hi = misfit(n, 0.05), misfit(n, 0.2)
        c1 = (m_hi - m_lo) / (0.2 - 0.05) / h2
        c2 = m_lo / h2 - c1 * 0.05
        fitted[n] = (c1, c2)
    c1_ratio = fitted[64][0] / fitted[32][0]
    assert 0.75 < c1_ratio < 1.33
    for c1, c2 in fitted.values():
        assert abs(c2) < 0.05 * c1


def test_flow_on_shifted_axes_matches():
    """Axis labels are bookkeeping: the same data flowed on axes (0,) and
    (5,) produces identical diagnostics."""
    series = {}
    for axes in ((0,), (5,)):
        spec = LatticeSpec(active_axes=axes, points=16)
        cfg = FlowConfig(spec=spec, family="rotation-field", params={"eps": 0.05},
                         seed=1, max_steps=20, diag_cadence=5)
        res = run_flow(cfg)
        series[axes] = [(r.E, r.maxT, r.negDivT2) for r in res.records]
    for a, b in zip(series[(0,)], series[(5,)]):
        assert a == pytest.approx(b, rel=1e-12)
