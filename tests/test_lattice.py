import numpy as np
import pytest

from spin7.algebra import pi7, pi21, unpack4
from spin7.flow import (diagnostics, entropy, evaluate, flow_step, initial_data,
                        parabolic_rescale, theta_functional)
from spin7.lattice import (LatticeSpec, _embed_m_axis, bianchi_residual, div_torsion,
                           energy, fd_gradient_embedded, fd_gradient_generic, fd_laplacian,
                           grid_coordinates, integrate, max_torsion,
                           ricci_residual, scalar_residual, torsion, torsion_norm_sq)
from spin7.orbit import rotate_form, so8_exp

from conftest import PHI0C, torsion_21_defect, unit_pi7_generator


def observed_order(errors):
    return [float(np.log2(errors[i] / errors[i + 1])) for i in range(len(errors) - 1)]


# ---------------------------------------------------------------------------
# spec validation


def test_spec_validation():
    with pytest.raises(ValueError):
        LatticeSpec(active_axes=(), points=8)
    with pytest.raises(ValueError):
        LatticeSpec(active_axes=(0, 0), points=8)
    with pytest.raises(ValueError):
        LatticeSpec(active_axes=(9,), points=8)
    with pytest.raises(ValueError):
        LatticeSpec(active_axes=(0,), points=8, stencil_order=3)
    with pytest.raises(ValueError):
        LatticeSpec(active_axes=(0,), points=6, stencil_order=4)
    with pytest.raises(ValueError):
        LatticeSpec(active_axes=(0,), points=8, period=-1.0)


@pytest.mark.parametrize("kwargs", [
    {"active_axes": (0.5,)}, {"active_axes": (True,)}, {"active_axes": ("1",)},
    {"points": 8.5}, {"points": True}, {"points": "8"},
    {"stencil_order": 2.5}, {"stencil_order": "2"}, {"points": float("inf")},
], ids=["axis-fraction", "axis-bool", "axis-text", "points-fraction", "points-bool",
        "points-text", "order-fraction", "order-text", "points-inf"])
def test_spec_refuses_non_integers(kwargs):
    """A bool, a string or a fraction is refused, never truncated or read as 0/1."""
    with pytest.raises(ValueError, match="expected int"):
        LatticeSpec(**{"active_axes": (0,), "points": 8, **kwargs})


def test_spec_reads_integral_floats_as_ints():
    spec = LatticeSpec.from_dict({"active_axes": [2.0], "points": 8.0, "period": 1,
                                  "stencil_order": 4.0})
    assert spec == LatticeSpec(active_axes=(1,), points=8, period=1.0, stencil_order=4)
    assert all(type(v) is int for v in (spec.active_axes[0], spec.points, spec.stencil_order))
    with pytest.raises(ValueError, match="active axis"):
        LatticeSpec.from_dict({"active_axes": [1.5], "points": 8, "period": 1.0})


def test_spec_roundtrip():
    spec = LatticeSpec(active_axes=(0, 2), points=16, period=2.0, stencil_order=4)
    assert LatticeSpec.from_dict(spec.to_dict()) == spec
    assert spec.cell_volume == (2.0 / 16) ** 2 * 2.0**6


# ---------------------------------------------------------------------------
# derivatives


def test_gradient_of_constant_is_zero():
    spec = LatticeSpec(active_axes=(0,), points=8)
    field = np.ones((8, 70))
    assert np.abs(fd_gradient_generic(spec, field)).max() == 0.0


def test_gradient_stencil_arithmetic():
    spec = LatticeSpec(active_axes=(0,), points=4)
    vals = np.array([0.0, 1.0, 0.0, -1.0])
    grad = fd_gradient_generic(spec, vals)
    h = spec.spacing
    assert grad[0, 0] == (1.0 - (-1.0)) / (2 * h)


@pytest.mark.parametrize("order", [2, 4])
def test_gradient_convergence_order(order):
    errs = []
    for n in (16, 32, 64):
        spec = LatticeSpec(active_axes=(0,), points=n, stencil_order=order)
        x = grid_coordinates(spec)[0]
        field = np.sin(2 * np.pi * x / spec.period)
        exact = 2 * np.pi / spec.period * np.cos(2 * np.pi * x / spec.period)
        errs.append(np.abs(fd_gradient_generic(spec, field)[:, 0] - exact).max())
    for p in observed_order(errs):
        assert abs(p - order) < 0.2


@pytest.mark.parametrize("order", [2, 4])
def test_laplacian_convergence(order):
    """On 1, 2 and 3 axes: a product of sines, sin(k_a w x_a + a) over the
    axes a, has the Laplacian -w^2 sum(k_a^2) times itself."""
    for modes in ((1,), (1, 2), (1, 2, 1)):
        errs = []
        for n in (16, 32, 64):
            spec = LatticeSpec(active_axes=tuple(range(len(modes))), points=n,
                               stencil_order=order)
            w = 2 * np.pi / spec.period
            field = np.prod([np.sin(k * w * x + a) for a, (k, x)
                             in enumerate(zip(modes, grid_coordinates(spec)))], axis=0)
            exact = -w * w * sum(k * k for k in modes) * field
            errs.append(np.abs(fd_laplacian(spec, field) - exact).max())
        for p in observed_order(errs):
            assert abs(p - order) < 0.2


# ---------------------------------------------------------------------------
# torsion


def rotation_state(spec, eps=0.05, seed=1):
    return initial_data("rotation-field", {"eps": eps}, spec, seed=seed)


def test_torsion_of_constant_field_is_zero():
    spec = LatticeSpec(active_axes=(0,), points=8)
    phi = np.broadcast_to(PHI0C, (8, 70)).copy()
    assert np.abs(torsion(spec, phi)).max() == 0.0


def analytic_torsion(spec, eps, seed):
    """Exact continuum torsion of the single-generator rotation field."""
    rng = np.random.default_rng(seed)
    gen = unit_pi7_generator(rng)
    x = grid_coordinates(spec)[0]
    theta = eps * np.sin(2 * np.pi * x / spec.period)
    theta_prime = eps * 2 * np.pi / spec.period * np.cos(2 * np.pi * x / spec.period)
    phi = rotate_form(so8_exp(theta[:, None, None] * gen), PHI0C)
    # d_1 phi = theta' (gen diamond phi); its torsion slice is theta' pi7(gen)
    t_exact = np.zeros(spec.grid_shape + (8, 8, 8))
    t_exact[:, spec.active_axes[0]] = theta_prime[:, None, None] * pi7(gen, phi)
    return t_exact


@pytest.mark.parametrize("order", [2, 4])
def test_torsion_matches_analytic_oracle(order):
    errs = []
    for n in (16, 32, 64):
        spec = LatticeSpec(active_axes=(0,), points=n, stencil_order=order)
        state = rotation_state(spec)
        t = _embed_m_axis(spec, torsion(spec, state.phi), 1)
        errs.append(np.abs(t - analytic_torsion(spec, 0.05, 1)).max())
    for p in observed_order(errs):
        assert abs(p - order) < 0.2


def test_torsion_reconstructs_gradient():
    """diamond(T_m, phi) recovers d_m phi at stencil order."""
    errs = []
    for n in (16, 32, 64):
        spec = LatticeSpec(active_axes=(0,), points=n)
        state = rotation_state(spec)
        phi_d = state.phi_dense()
        t = torsion(spec, state.phi)[:, 0]
        grad = unpack4(fd_gradient_generic(spec, state.phi))[:, 0]
        recon = (np.einsum("xip,xpjkl->xijkl", t, phi_d)
                 + np.einsum("xjp,xipkl->xijkl", t, phi_d)
                 + np.einsum("xkp,xijpl->xijkl", t, phi_d)
                 + np.einsum("xlp,xijkp->xijkl", t, phi_d))
        errs.append(np.abs(recon - grad).max())
    for p in observed_order(errs):
        assert abs(p - 2) < 0.2


def test_omega21_defect_of_torsion_is_structural_zero():
    """The triple contraction is equivariant and 4-forms carry no
    21-summand, so the discrete torsion is exactly 7-summand valued at
    every point: the defect sits at round-off, far below the O(h^p) bound."""
    for n in (16, 64):
        spec = LatticeSpec(active_axes=(0,), points=n)
        state = initial_data("random-smooth", {"eps": 0.05, "kmax": 2}, spec, seed=3)
        t = torsion(spec, state.phi)
        assert torsion_21_defect(t, state.phi) < 1e-13


def test_raw_divergence_21_content_decays():
    """pi7(Div T) and raw Div T agree up to the stencil-order defect."""
    errs = []
    for n in (16, 32, 64):
        spec = LatticeSpec(active_axes=(0,), points=n)
        state = initial_data("random-smooth", {"eps": 0.05, "kmax": 2}, spec, seed=3)
        t = torsion(spec, state.phi)
        raw = div_torsion(spec, t)
        proj = pi7(raw, state.phi)
        errs.append(float(np.abs(raw - proj).max()))
    for p in observed_order(errs):
        assert abs(p - 2) < 0.2


def test_omega21_defect_negative_control(rng):
    spec = LatticeSpec(active_axes=(0,), points=16)
    state = rotation_state(spec)
    t = torsion(spec, state.phi)
    noise = rng.standard_normal((8, 8))
    t_bad = t.copy()
    t_bad[:, 0] += 0.1 * pi21(noise - noise.T, state.phi)
    assert torsion_21_defect(t_bad, state.phi) > 1e-2


# ---------------------------------------------------------------------------
# divergence and summation by parts


def test_div_of_zero_and_constant():
    spec = LatticeSpec(active_axes=(0,), points=8)
    t = np.zeros((8, 8, 8, 8))
    assert np.abs(div_torsion(spec, t)).max() == 0.0
    t[:, 0, 1, 2], t[:, 0, 2, 1] = 1.0, -1.0   # constant in x
    assert np.abs(div_torsion(spec, t)).max() == 0.0


def test_summation_by_parts(rng):
    """Against the discrete-sum oracle: periodic central differences satisfy
    sum <Div T, beta> + sum <T, grad beta> = 0 exactly (up to round-off);
    the pi7-projected divergence differs by the stencil-order defect."""
    spec = LatticeSpec(active_axes=(0,), points=32)
    state = rotation_state(spec)
    t = torsion(spec, state.phi)
    x = grid_coordinates(spec)[0]
    b = rng.standard_normal((8, 8))
    beta = np.sin(2 * np.pi * x / spec.period)[:, None, None] * (b - b.T)
    div_raw = div_torsion(spec, t)
    lhs = np.sum(div_raw * beta)
    grad_beta = fd_gradient_generic(spec, beta)  # (n, 1, 8, 8)
    rhs = np.sum(t[:, 0] * grad_beta[:, 0])
    assert abs(lhs + rhs) < 1e-12 * max(1.0, abs(lhs))
    div_proj = pi7(div_raw, state.phi)
    assert abs(np.sum(div_proj * beta) + rhs) < 1e-4


# ---------------------------------------------------------------------------
# energy


def test_energy_zero_torsion():
    spec = LatticeSpec(active_axes=(0,), points=8)
    assert energy(spec, np.zeros((8, 8, 8, 8))) == 0.0


def test_energy_riemann_sum_of_constant():
    spec = LatticeSpec(active_axes=(0,), points=8, period=2.0)
    t = np.zeros((8, 8, 8, 8))
    t[:, 0, 1, 2], t[:, 0, 2, 1] = 1.0, -1.0   # |T|^2 = 2 everywhere
    total_volume = spec.period**8
    assert abs(energy(spec, t) - total_volume) < 1e-12


def test_energy_refinement_convergence():
    vals = []
    for n in (16, 32, 64, 128):
        spec = LatticeSpec(active_axes=(0,), points=n)
        state = rotation_state(spec)
        vals.append(energy(spec, torsion(spec, state.phi)))
    # Richardson: E_n - E_inf = O(h^2); successive differences shrink 4x
    d1, d2 = vals[1] - vals[0], vals[2] - vals[1]
    d3 = vals[3] - vals[2]
    assert abs(d2 / d1) < 0.30
    assert abs(d3 / d2) < 0.30


def test_integrate_normalization():
    spec = LatticeSpec(active_axes=(0,), points=8, period=1.5)
    ones = np.ones(spec.grid_shape)
    assert abs(integrate(spec, ones) - 1.5**8) < 1e-12


# ---------------------------------------------------------------------------
# flat-space identity residuals


def two_axis_state(n, seed=11, eps=0.05):
    spec = LatticeSpec(active_axes=(0, 1), points=n)
    state = initial_data("random-smooth", {"eps": eps, "kmax": 2}, spec, seed=seed)
    return spec, state


def test_residuals_vanish_on_constant():
    spec = LatticeSpec(active_axes=(0,), points=8)
    phi = np.broadcast_to(PHI0C, (8, 70)).copy()
    t = torsion(spec, phi)
    assert bianchi_residual(spec, t) == 0.0
    assert ricci_residual(spec, t) == 0.0
    assert scalar_residual(spec, t) == 0.0


def test_residuals_one_axis_degenerate():
    """With one active axis the torsion has a single slice and the
    first-order identity residuals vanish identically on the lattice."""
    spec = LatticeSpec(active_axes=(0,), points=16)
    state = rotation_state(spec)
    t = torsion(spec, state.phi)
    assert bianchi_residual(spec, t) < 1e-15
    assert ricci_residual(spec, t) < 1e-14
    assert scalar_residual(spec, t) < 1e-13


def test_residual_refinement_orders_two_axes():
    eb, er, es = [], [], []
    for n in (12, 24, 48):
        spec, state = two_axis_state(n)
        t = torsion(spec, state.phi)
        eb.append(bianchi_residual(spec, t))
        er.append(ricci_residual(spec, t))
        es.append(scalar_residual(spec, t))
    assert observed_order(eb)[-1] == pytest.approx(2.0, abs=0.35)
    assert observed_order(er)[-1] == pytest.approx(2.0, abs=0.35)
    assert observed_order(es)[-1] == pytest.approx(2.0, abs=0.35)


def test_scalar_residual_is_trace_of_ricci():
    spec, state = two_axis_state(12)
    t = torsion(spec, state.phi)
    ric = ricci_residual(spec, t, return_field=True)
    assert scalar_residual(spec, t) == float(np.abs(np.einsum("...ii->...", ric)).max())


def scalar_residual_printed(spec, t_field):
    """The |T|^2 variant of the scalar residual; O(1), does not decay.  It pairs
    the m-slot with a form index, so it reads T embedded to all eight slots."""
    t_field = _embed_m_axis(spec, t_field, t_field.ndim - 3)
    gt = fd_gradient_embedded(spec, t_field)
    res = (4.0 * np.einsum("...iaia->...", gt)
           - 4.0 * np.einsum("...aiia->...", gt)
           + 8.0 * torsion_norm_sq(t_field)
           + 8.0 * np.einsum("...ajb,...jba->...", t_field, t_field))
    return float(np.abs(res).max())


def test_scalar_printed_variant_does_not_decay():
    """The |T|^2 variant converges to a nonzero constant: it is inconsistent
    with the Ricci expression it should be the trace of."""
    vals = [scalar_residual_printed(*(lambda s: (s[0], torsion(s[0], s[1].phi)))(
        two_axis_state(n))) for n in (12, 24)]
    assert vals[0] > 1e-3
    assert vals[1] > 0.5 * vals[0]


def test_bianchi_negative_control(rng):
    """Injected 21-summand noise leaves an O(1) residual that refinement
    does not remove."""
    corrupted = []
    for n in (16, 32):
        spec, state = two_axis_state(n)
        t = torsion(spec, state.phi)
        clean = bianchi_residual(spec, t)
        noise = rng.standard_normal((8, 8))
        xs = grid_coordinates(spec)
        wave = np.sin(2 * np.pi * xs[0] / spec.period)
        t_bad = t.copy()
        t_bad[..., 0, :, :] += (0.3 * wave)[..., None, None] * pi21(
            noise - noise.T, state.phi)
        bad = bianchi_residual(spec, t_bad)
        assert bad > 5 * clean
        corrupted.append(bad)
    assert corrupted[1] > 0.5 * corrupted[0]  # no refinement decay


def test_max_torsion_norm():
    spec = LatticeSpec(active_axes=(0,), points=8)
    t = np.zeros((8, 8, 8, 8))
    t[3, 0, 1, 2], t[3, 0, 2, 1] = 3.0, -3.0
    assert max_torsion(spec, t) == pytest.approx(np.sqrt(18.0))


def test_shifted_active_axes_equivalent():
    """The same 1-d data on axis 0 and on axis 5 gives identical physics:
    the m-slot moves but energies, divergences and residual norms agree."""
    results = {}
    for axes in ((0,), (5,)):
        spec = LatticeSpec(active_axes=axes, points=16)
        state = initial_data("rotation-field", {"eps": 0.05}, spec, seed=1)
        t = torsion(spec, state.phi)
        div = pi7(div_torsion(spec, t), state.phi)
        results[axes] = (
            energy(spec, t),
            float(np.abs(div).max()),
            float(np.abs(t[..., 0, :, :]).max()),
        )
        # one slice, the active axis's; the zero inactive slices are not stored
        assert t.shape == (16, 1, 8, 8)
    a, b = results[(0,)], results[(5,)]
    assert a == pytest.approx(b, rel=1e-12)


def label_invariant_outputs(spec, state):
    """Every output that does not read an axis label: the record columns but
    ricci and scalar, theta, entropy and the parabolic rescale report."""
    nxt = flow_step(state, 0.1 * spec.spacing**2)
    first = diagnostics(state)
    second = diagnostics(nxt, (first.t, first.E))
    columns = ("E", "dEdt", "negDivT2", "maxT", "bianchi", "metric_drift", "omega21_defect")
    out = [getattr(rec, c) for rec in (first, second) for c in columns]
    out += list(theta_functional([state, nxt], (4, 4), nxt.t + 1e-3))
    out.append(entropy(state, 0.01, t_samples=4))
    out += [v for _, v in sorted(parabolic_rescale(state, 2.0)[1].items())]
    return out


def test_two_axis_shifted_equivalent():
    """The same 2-d data on axes (0, 1) and (2, 6) gives the same physics:
    every output that sums over the m-slot or reads it as a derivative
    direction agrees.  ricci and scalar are left out: they read T_{i;ja}
    at an active label a, a form index, so they legitimately differ."""
    results = []
    for axes in ((0, 1), (2, 6)):
        spec = LatticeSpec(active_axes=axes, points=8)
        state = initial_data("random-smooth", {"eps": 0.05, "kmax": 1}, spec, seed=7)
        t = torsion(spec, state.phi)
        div = pi7(div_torsion(spec, t), state.phi)
        results.append([energy(spec, t), float(np.abs(div).max()), bianchi_residual(spec, t)]
                       + label_invariant_outputs(spec, state))
    assert results[1] == pytest.approx(results[0], rel=1e-12)


def embed_loop(spec, compact, position):
    """The slot-by-slot scatter `_embed_m_axis` replaced, kept as its oracle."""
    shape = list(compact.shape)
    shape[position] = 8
    out = np.zeros(shape, dtype=compact.dtype)
    idx = [slice(None)] * len(shape)
    for i, ax in enumerate(spec.active_axes):
        idx[position] = ax
        src = [slice(None)] * len(shape)
        src[position] = i
        out[tuple(idx)] = compact[tuple(src)]
    return out


@pytest.mark.parametrize("axes", [(3,), (1, 4), (0, 2, 7)])
def test_embed_matches_slot_loop(axes, rng):
    spec = LatticeSpec(active_axes=axes, points=4)
    k = spec.n_axes
    for position in range(k + 3):
        shape = (3,) * position + (k,) + (2,) * (k + 2 - position)
        compact = rng.standard_normal(shape).astype(np.float32)
        out = _embed_m_axis(spec, compact, position)
        assert out.dtype == np.float32 and out.shape[position] == 8
        assert out.tobytes() == embed_loop(spec, compact, position).tobytes()


@pytest.mark.parametrize("axes", [(2,), (1, 4), (0, 2, 7)])
def test_evaluation_keeps_the_active_slices(axes):
    spec = LatticeSpec(active_axes=axes, points=6)
    state = initial_data("random-smooth", {"eps": 0.1}, spec, seed=4)
    ev = evaluate(state)
    assert ev.t_field.shape == spec.grid_shape + (spec.n_axes, 8, 8)
    assert ev.t_field.tobytes() == torsion(spec, state.phi).tobytes()
