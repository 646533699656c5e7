"""Time integration of the harmonic 4-form flow and its diagnostics.

The evolution law is d(phi)/dt = (Div T) diamond phi, realized pointwise as
a rotation update phi <- rotate(exp(dt * G), phi) with generator
G = pi7(Div T): the exponential keeps every grid value exactly on the
rotation orbit of the Cayley form, so the induced metric stays the
identity up to exponential-map round-off no matter how long the run.

Time steps obey the parabolic restriction dt = cfl * h^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple

import numpy as np

from . import algebra, lattice, orbit
from .algebra import metric_from_form, pi7, pi21, unpack4
from .heat import center_index, heat_average
from .lattice import LatticeSpec, as_number, as_object
from .octonion import OCT_TABLE

__all__ = [
    "FlowState",
    "FlowConfig",
    "DiagRecord",
    "FlowAbort",
    "SolitonSchedule",
    "initial_data",
    "Evaluation",
    "evaluate",
    "flow_step",
    "run_flow",
    "RunResult",
    "diagnostics",
    "metric_drift",
    "require_admissible",
    "energy_gradient_check",
    "torsion_evolution_residual",
    "quartic_terms",
    "theta_functional",
    "entropy",
    "soliton_schedule",
    "soliton_residual",
    "parabolic_rescale",
    "rescaled",
    "convexity_gap",
    "fit_type1_exponent",
    "DIAG_COLUMNS",
]


class FlowAbort(RuntimeError):
    """Raised when the integrator hits NaN/Inf or the blow-up guard."""


@dataclass
class FlowState:
    """A 4-form field on the lattice plus the simulation clock.

    phi is canonical storage, shape grid_shape + (70,).
    """

    spec: LatticeSpec
    phi: np.ndarray
    t: float = 0.0
    step: int = 0

    def phi_dense(self) -> np.ndarray:
        return unpack4(self.phi)


@dataclass(frozen=True)
class FlowConfig:
    """Run description: lattice, initial data, stepping and cadences."""

    spec: LatticeSpec
    family: str = "rotation-field"
    params: dict = field(default_factory=dict)
    seed: int = 0
    cfl: float = 0.1
    t_end: float | None = None
    max_steps: int | None = None
    diag_cadence: int = 10
    checkpoint_cadence: int = 0          # 0: only the final checkpoint
    div_tol: float = 1e-8
    blowup_factor: float = 1e6

    def __post_init__(self):
        as_object(self.params, "params")    # its keys are the family's to check
        for name, kind in (("seed", int), ("cfl", float), ("t_end", float), ("max_steps", int),
                           ("diag_cadence", int), ("checkpoint_cadence", int),
                           ("div_tol", float), ("blowup_factor", float)):
            value = getattr(self, name)
            if value is not None or name not in ("t_end", "max_steps"):
                object.__setattr__(self, name, as_number(kind, value, name))
        if not 0.0 < self.cfl < 1.0:
            raise ValueError(f"cfl must lie in (0, 1), got {self.cfl}")
        if self.t_end is None and self.max_steps is None:
            raise ValueError("need t_end or max_steps")
        if self.diag_cadence < 1:
            raise ValueError("diag_cadence must be >= 1")
        if self.max_steps is not None and self.max_steps < 0:
            raise ValueError(f"max_steps must be >= 0, got {self.max_steps}")
        if self.checkpoint_cadence < 0:
            raise ValueError(f"checkpoint_cadence must be >= 0, got {self.checkpoint_cadence}")
        if self.t_end is not None and self.t_end < 0.0:
            raise ValueError(f"t_end must be >= 0, got {self.t_end}")
        if self.div_tol < 0.0:
            raise ValueError(f"div_tol must be >= 0, got {self.div_tol}")
        if not self.blowup_factor > 0.0:
            raise ValueError(f"blowup_factor must be > 0, got {self.blowup_factor}")
        if not self.dt > 0.0:
            raise ValueError(f"dt = cfl * h^2 underflows to 0 (h = {self.spec.spacing:g})")

    @property
    def dt(self) -> float:
        return self.cfl * self.spec.spacing ** 2


@dataclass(frozen=True)
class DiagRecord:
    t: float
    E: float
    dEdt: float
    negDivT2: float
    maxT: float
    bianchi: float
    ricci: float
    scalar: float
    metric_drift: float
    omega21_defect: float

    def as_tuple(self) -> tuple:
        return tuple(getattr(self, c) for c in DIAG_COLUMNS)


DIAG_COLUMNS = tuple(f.name for f in fields(DiagRecord))


# ---------------------------------------------------------------------------
# initial data

def _unit_direction(rng: np.random.Generator) -> np.ndarray:
    """A seeded unit imaginary octonion u: the 7-summand part of a Gaussian
    skew generator is the right multiplication by a multiple of u."""
    a = rng.standard_normal((8, 8))
    u = np.einsum("ajb,ab->j", OCT_TABLE, a - a.T)
    return u / np.sqrt(np.sum(u * u))


def _squared_exp(v: np.ndarray) -> np.ndarray:
    """The form psi^2 of psi = exp(v) = cos|v| + sin|v| v/|v|, for an
    imaginary-octonion field v, grid + (8,)."""
    s = np.sqrt(np.einsum("...a,...a->...", v, v))
    psi = np.divide(np.sin(s), s, out=np.ones_like(s), where=s > 0)[..., None] * v
    psi[..., 0] = np.cos(s)
    return orbit.bryant_form(psi)


# The largest angle of initial data.  The spinor square is exact at any angle,
# so the bound only has to keep |v|^2 finite (past about 1e154 it overflows);
# 1e9 keeps that with a wide margin.
_MAX_ANGLE = 1e9


def _amplitude(params: dict, n_terms: int = 1) -> float:
    """The `eps` of an angle field of up to n_terms * |eps|, at most _MAX_ANGLE."""
    eps = as_number(float, params.get("eps", 0.05), "eps")
    if not n_terms * abs(eps) <= _MAX_ANGLE:
        raise ValueError(f"eps: {eps:g} takes the rotation angle past {_MAX_ANGLE:g}")
    return eps


def _profile(spec: LatticeSpec, kind: str, params: dict):
    """Periodic scalar profile theta(x) on the grid; `kind` is a key of
    _PROFILE_PARAMS and `params` holds only keys it reads."""
    xs = lattice.grid_coordinates(spec)
    eps = _amplitude(params)
    l = spec.period
    if kind == "sine":
        axis = as_number(int, params.get("axis", 0), "axis")     # an active-axis index
        if not 0 <= axis < spec.n_axes:
            raise ValueError(f"axis must lie in [0, {spec.n_axes}), got {axis}")
        mode = as_number(int, params.get("mode", 1), "mode")
        return eps * np.sin(2.0 * np.pi * mode * xs[axis] / l)
    width = as_number(float, params.get("width", l / 16.0), "width")
    # width^2 and the largest exponent, d^2 / (2 width^2) at d = L / pi, must be normal floats
    if not (width > 0 and np.finfo(float).tiny <= width * width < math.inf
            and (l / np.pi) ** 2 / (2.0 * width * width) < math.inf):
        raise ValueError(f"width: {width:g} is not positive or puts the bump out of float range")
    centers = params.get("center", [l / 2.0] * spec.n_axes)
    if not isinstance(centers, (list, tuple)) or len(centers) != spec.n_axes:
        raise ValueError(f"bump center needs a list of {spec.n_axes} coordinates, one per "
                         f"active axis, got {centers!r}")
    centers = [as_number(float, c, "center") for c in centers]
    out = np.ones(spec.grid_shape)
    for x, c in zip(xs, centers):
        # Gaussian in the periodic chordal distance (L/pi) sin(pi d / L),
        # smooth on the torus and localized at scale `width`
        d = np.sin(np.pi * (x - c) / l) * l / np.pi
        out = out * np.exp(-d * d / (2.0 * width**2))
    return eps * out


# the `params` keys each initial-data family reads; a rotation field reads
# "profile" and then the keys of its profile
_FAMILY_PARAMS = {
    "constant": (),
    "rotation-field": ("profile",),
    "bryant-wave": ("eps", "axis"),
    "random-smooth": ("eps", "kmax", "n_generators"),
}
_PROFILE_PARAMS = {"sine": ("eps", "axis", "mode"), "bump": ("eps", "width", "center")}


def initial_data(family: str, params: dict, spec: LatticeSpec, seed: int = 0) -> FlowState:
    """Construct admissible initial data; deterministic per seed.

    Families:
      constant        the Cayley form everywhere (zero torsion)
      rotation-field  exp(theta(x) A) . Phi0, A a seeded unit 7-summand generator;
                      profile "sine" (default) or "bump"
      bryant-wave     spinor parametrization along a periodic sphere curve
      random-smooth   exp(A(x)) . Phi0, A a low-frequency random 7-summand field

    Each but `constant` is `orbit.bryant_form(exp v)`, v an imaginary-octonion field.

    Raises ValueError for an unknown family or profile, a params key the
    family (or its profile) does not read, or a parameter out of range.
    """
    if not isinstance(family, str) or family not in _FAMILY_PARAMS:
        raise ValueError(f"unknown initial-data family {family!r}")
    params = dict(params or {})
    read, where = _FAMILY_PARAMS[family], repr(family)
    if family == "rotation-field":
        profile = params.pop("profile", "sine")
        if not isinstance(profile, str) or profile not in _PROFILE_PARAMS:
            raise ValueError(f"unknown profile {profile!r}")
        read, where = _PROFILE_PARAMS[profile], f"{family!r} with profile {profile!r}"
    as_object(params, f"params of {where}", read)
    rng = np.random.default_rng(seed)
    if family == "constant":
        phi = np.broadcast_to(algebra.PHI0C, spec.grid_shape + (70,)).copy()
    elif family == "rotation-field":
        # exp(theta R_u / sqrt 8) Phi0 is the square of exp(theta u / sqrt 2)
        u = _unit_direction(rng)
        phi = _squared_exp((_profile(spec, profile, params) / np.sqrt(2.0))[..., None] * u)
    elif family == "bryant-wave":
        u = rng.standard_normal(8)
        u[0] = 0.0
        u /= np.linalg.norm(u)
        # the sphere angle is the mode-1 sine profile, with its own eps default
        phi = _squared_exp(_profile(spec, "sine", {"eps": 0.5, **params})[..., None] * u)
    elif family == "random-smooth":
        kmax = as_number(int, params.get("kmax", 2), "kmax")
        n_gen = as_number(int, params.get("n_generators", 3), "n_generators")
        for key, value in (("kmax", kmax), ("n_generators", n_gen)):
            if value < 1:
                raise ValueError(f"{key} must be >= 1, got {value}")
        eps = _amplitude(params, n_gen)
        xs = lattice.grid_coordinates(spec)
        v = np.zeros(spec.grid_shape + (8,))
        for _ in range(n_gen):
            u = _unit_direction(rng)
            phase = np.zeros(spec.grid_shape)
            for x in xs:
                k = int(rng.integers(1, kmax + 1))
                phase = phase + 2.0 * np.pi * k * x / spec.period + rng.uniform(0, 2 * np.pi)
            v = v + (eps * np.sin(phase) / np.sqrt(2.0))[..., None] * u
        phi = _squared_exp(v)
    state = FlowState(spec=spec, phi=phi)
    require_admissible(state, "initial data")
    return state


# ---------------------------------------------------------------------------
# stepping

class Evaluation(NamedTuple):
    """What the step, the record and the checks read of one state."""

    t_field: np.ndarray    # torsion on the active axes, grid + (n_axes, 8, 8)
    gen: np.ndarray        # update generator pi7(Div T), grid + (8, 8)


def evaluate(state: FlowState) -> Evaluation:
    """The torsion and update generator of a state.

    The single place a state's torsion and generator are computed; the
    step, the diagnostics record and every check read them from here.
    """
    t_field = lattice.torsion(state.spec, state.phi)
    gen = pi7(lattice.div_torsion(state.spec, t_field), state.phi)
    return Evaluation(t_field, gen)


def _advance(state: FlowState, ev: Evaluation, dt: float) -> FlowState:
    if not np.all(np.isfinite(ev.gen)):
        raise FlowAbort(f"non-finite update generator at t={state.t:.6g}, step {state.step}")
    phi = orbit.rotate_form(orbit.so8_exp(dt * ev.gen), state.phi)
    return FlowState(spec=state.spec, phi=phi, t=state.t + dt, step=state.step + 1)


def flow_step(state: FlowState, dt: float) -> FlowState:
    """One forward Lie-Euler step: rotate the form by exp(dt * pi7(Div T))."""
    return _advance(state, evaluate(state), dt)


def metric_drift(state: FlowState) -> float:
    """Max over grid and entries of |metric_from_form(phi) - identity|; the
    one dense form a diagnostics record builds."""
    g = metric_from_form(state.phi_dense())
    return float(np.abs(g - np.eye(8)).max())


def require_admissible(state: FlowState, source: str = "form") -> None:
    """Refuse a state off the rotation orbit: every form must induce the
    identity metric, to a `metric_drift` below 1e-8.

    Raises ValueError, or its subclass DegenerateFormError where a form
    induces no metric at all; either message starts with `source`.
    """
    try:
        drift = metric_drift(state)
    except algebra.DegenerateFormError as exc:
        raise algebra.DegenerateFormError(f"{source}: {exc}") from None
    if not drift < 1e-8:
        raise ValueError(f"{source} is off the rotation orbit: metric drift {drift:.3e}")


def _record(state: FlowState, ev: Evaluation, prev: tuple[float, float] | None) -> DiagRecord:
    spec = state.spec
    e = lattice.energy(spec, ev.t_field)
    gen_sq = np.einsum("...ab,...ab->...", ev.gen, ev.gen)
    neg_div2 = -lattice.integrate(spec, gen_sq)
    if prev is None or state.t == prev[0]:
        dedt = 0.0
    else:
        dedt = (e - prev[1]) / (state.t - prev[0])
    gen_defect = pi21(ev.gen, state.phi)
    # the scalar residual is the trace of the Ricci residual field
    ricci = lattice.ricci_residual(spec, ev.t_field, return_field=True)
    return DiagRecord(
        t=state.t,
        E=e,
        dEdt=dedt,
        negDivT2=neg_div2,
        maxT=lattice.max_torsion(spec, ev.t_field),
        bianchi=lattice.bianchi_residual(spec, ev.t_field),
        ricci=float(np.abs(ricci).max()),
        scalar=float(np.abs(np.einsum("...ii->...", ricci)).max()),
        metric_drift=metric_drift(state),
        omega21_defect=float(np.sqrt(np.max(np.sum(gen_defect**2, axis=(-1, -2))))),
    )


def diagnostics(state: FlowState, prev: tuple[float, float] | None = None) -> DiagRecord:
    """One diagnostics row; prev = (t, E) of the previous record for dEdt."""
    return _record(state, evaluate(state), prev)


@dataclass
class RunResult:
    records: list
    state: FlowState
    exit_reason: str


def run_flow(config: FlowConfig, state: FlowState | None = None,
             prev_record: tuple[float, float] | None = None,
             on_record=None, on_checkpoint=None) -> RunResult:
    """Drive the flow from config (or a resumed state) to a stopping condition.

    Records are emitted at steps divisible by diag_cadence, computed from the
    absolute step counter so a resumed run reproduces the uninterrupted
    series.  Stopping: t_end / max_steps, convergence (sup |Div T| below
    div_tol), or the blow-up guard max|T| > blowup_factor / h.

    A t_end run stops at the first state with t >= t_end (to a relative
    1e-15 allowance for clock round-off); the step is not clipped, so a run
    started before t_end ends at a time in [t_end, t_end + dt).
    """
    if state is None:
        state = initial_data(config.family, config.params, config.spec, config.seed)
    dt = config.dt
    records: list[DiagRecord] = []
    prev = prev_record
    written = None     # step of the last checkpoint handed to on_checkpoint
    blowup_ceiling = config.blowup_factor / config.spec.spacing

    def emit(st: FlowState, ev: Evaluation) -> None:
        nonlocal prev
        rec = _record(st, ev, prev)
        prev = (rec.t, rec.E)
        records.append(rec)
        if on_record is not None:
            on_record(rec)

    def take_checkpoint(st: FlowState):
        nonlocal written
        if on_checkpoint is not None and st.step != written:
            written = st.step
            on_checkpoint(st, prev)

    exit_reason = "max_steps"
    # each state is evaluated once; its record and its step share the evaluation
    ev = evaluate(state)
    if state.step % config.diag_cadence == 0 and prev_record is None:
        emit(state, ev)
    while True:
        if config.max_steps is not None and state.step >= config.max_steps:
            exit_reason = "max_steps"
            break
        if config.t_end is not None and state.t >= config.t_end - 1e-15 * max(1.0, abs(config.t_end)):
            exit_reason = "t_end"
            break
        sup_t = lattice.max_torsion(config.spec, ev.t_field)
        if not math.isfinite(sup_t):
            raise FlowAbort(f"non-finite torsion at step {state.step}")
        if sup_t > blowup_ceiling:
            exit_reason = "blowup_guard"
            break
        sup_div = float(np.sqrt(np.max(np.sum(ev.gen * ev.gen, axis=(-1, -2)))))
        if sup_div < config.div_tol:
            exit_reason = "converged"
            break
        state = _advance(state, ev, dt)
        ev = evaluate(state)
        if state.step % config.diag_cadence == 0:
            emit(state, ev)
        if config.checkpoint_cadence and state.step % config.checkpoint_cadence == 0:
            take_checkpoint(state)
    if prev is None or prev[0] != state.t:    # a resumed prev_record may be this state's
        emit(state, ev)
    take_checkpoint(state)
    return RunResult(records=records, state=state, exit_reason=exit_reason)


# ---------------------------------------------------------------------------
# variational and evolution checks

def energy_gradient_check(state: FlowState, direction: np.ndarray, eps: float) -> float:
    """Relative error between the finite-difference energy derivative and
    the first-variation prediction -integral <Div T, X> (full contraction).

    direction is a pointwise 2-form field X, expected in the 7-summand.
    """
    spec = state.spec
    ev = evaluate(state)
    predicted = -lattice.integrate(spec, np.einsum("...ab,...ab->...", ev.gen, direction))
    energies = []
    for sign in (+1.0, -1.0):
        rot = orbit.so8_exp(sign * eps * direction)
        moved = replace(state, phi=orbit.rotate_form(rot, state.phi))
        energies.append(lattice.energy(spec, evaluate(moved).t_field))
    fd = (energies[0] - energies[1]) / (2.0 * eps)
    denom = max(abs(predicted), 1e-300)
    return abs(fd - predicted) / denom


def quartic_terms(t_field: np.ndarray) -> np.ndarray:
    """The two quartic contractions in the |T|^2 evolution equation:
    16 T_{a;bp} T_{m;bc} T_{a;pq} T_{m;qc} + 16 T_{a;bp} T_{m;bc} T_{a;cq} T_{m;pq}.
    """
    q1 = np.einsum("...abp,...mbc,...apq,...mqc->...", t_field, t_field, t_field, t_field)
    q2 = np.einsum("...abp,...mbc,...acq,...mpq->...", t_field, t_field, t_field, t_field)
    return 16.0 * (q1 + q2)


def _one_lattice(states) -> LatticeSpec:
    """The lattice of one or more `states`; ValueError when there are none or
    they do not share one."""
    specs = {st.spec for st in states}
    if not specs:
        raise ValueError("states: need at least one state, got none")
    if len(specs) > 1:
        raise ValueError(f"states live on {len(specs)} incompatible lattices")
    return specs.pop()


def torsion_evolution_residual(prev: FlowState, mid: FlowState, nxt: FlowState) -> float:
    """Max-norm residual of the flat-torus |T|^2 evolution equation
    2 d|T|^2/dt = 2 lap |T|^2 - 4 |grad T|^2 + quartic terms,
    with the time derivative by central difference across three states.
    """
    spec = _one_lattice((prev, mid, nxt))
    t_prev, t_field, t_next = (evaluate(st).t_field for st in (prev, mid, nxt))
    tsq = [lattice.torsion_norm_sq(tf) for tf in (t_prev, t_field, t_next)]
    dt_minus, dt_plus = mid.t - prev.t, nxt.t - mid.t
    ddt = (tsq[2] - tsq[0]) / (dt_plus + dt_minus)
    gt = lattice.fd_gradient_generic(spec, t_field)
    grad_sq = np.einsum("...imab,...imab->...", gt, gt)
    rhs = 2.0 * lattice.fd_laplacian(spec, tsq[1]) - 4.0 * grad_sq + quartic_terms(t_field)
    return float(np.abs(2.0 * ddt - rhs).max())


# ---------------------------------------------------------------------------
# localized torsion functionals

def theta_functional(states, center: tuple[int, ...], t0: float) -> np.ndarray:
    """(t0 - t) * integral of |T|^2 against the backward heat kernel,
    one value per state.

    Raises ValueError when t0 is not a finite number (`as_number`) or not
    above every state time, when there are no states or they do not share
    one lattice, or when `center` does not give one grid index per active axis."""
    t0 = as_number(float, t0, "t0")
    spec = _one_lattice(states)
    latest = max(st.t for st in states)
    if not t0 > latest:
        raise ValueError(f"t0: {t0:g} must exceed every state time (latest {latest:g})")
    c = center_index(spec, center)
    out = []
    for st in states:
        tau = t0 - st.t
        tsq = lattice.torsion_norm_sq(evaluate(st).t_field)
        out.append(tau * float(heat_average(spec, tsq, tau)[c]))
    return np.array(out)


def entropy(state: FlowState, sigma: float, t_samples: int = 16, x_stride: int = 1) -> float:
    """max over sampled centers and scales t in (0, sigma] of
    t * integral |T|^2 u_{(x,t)}; a lower bound that is nondecreasing
    under sampling refinement.  The centers are every x_stride-th grid
    point per axis, the scales sigma * 2^-j for j < t_samples.

    Raises ValueError when sigma is not a finite positive number, when
    t_samples or x_stride is not an integer of at least 1 (numbers are read
    by `as_number`), or when the smallest scale underflows to 0."""
    sigma = as_number(float, sigma, "sigma")
    t_samples = as_number(int, t_samples, "t_samples")
    x_stride = as_number(int, x_stride, "x_stride")
    if not sigma > 0:
        raise ValueError(f"sigma: must be positive, got {sigma:g}")
    if t_samples < 1 or x_stride < 1:
        raise ValueError(f"t_samples and x_stride must be at least 1 "
                         f"(t_samples {t_samples}, x_stride {x_stride})")
    if not sigma * 2.0 ** (1 - t_samples) > 0:    # tested before the scales are allocated
        raise ValueError(f"the smallest scale sigma * 2^(1 - t_samples) underflows to 0 "
                         f"(sigma {sigma:g}, t_samples {t_samples})")
    taus = sigma * np.power(2.0, -np.arange(t_samples, dtype=float)[::-1])
    spec = state.spec
    tsq = lattice.torsion_norm_sq(evaluate(state).t_field)
    centers = (slice(0, max(1, spec.points // x_stride) * x_stride, x_stride),) * spec.n_axes
    best = 0.0
    for tau in taus.tolist():
        best = max(best, tau * float(heat_average(spec, tsq, tau)[centers].max()))
    return best


# ---------------------------------------------------------------------------
# solitons

@dataclass(frozen=True)
class SolitonSchedule:
    """Explicit self-similarity data (rho, alpha, anchor, interval).

    For c = +-1 the dilation is rho(t) = |t|^p with alpha(t) = -+2p/t,
    anchored at t_hat = -2pc where alpha(t_hat) = 1, valid on the side of
    t_hat away from the origin.  Note t = 0 lies outside that interval and
    rho(0) = 0 there: the unit-dilation normalization at the time origin is
    only attainable in the steady case c = 0 (rho = alpha = 1 identically),
    even though the source material states it for all three cases.
    """

    c: int
    p: float
    t_hat: float
    interval: tuple[float, float]

    def rho(self, t):
        t = np.asarray(t, dtype=float)
        if self.c == 0:
            return np.ones_like(t)
        return np.abs(t) ** self.p

    def alpha(self, t):
        t = np.asarray(t, dtype=float)
        if self.c == 0:
            return np.ones_like(t)
        return -self.c * 2.0 * self.p / t

    def check_invariants(self) -> float:
        """Max violation of alpha(t_hat) = 1, the pointwise relation
        alpha = -(2/c) (log rho)' on the interval interior (c != 0), and
        rho(0) = 1 in the steady case."""
        errs = [abs(float(self.alpha(self.t_hat)) - 1.0)]
        if self.c == 0:
            errs.append(abs(float(self.rho(0.0)) - 1.0))
        else:
            lo, hi = self.interval
            lo = max(lo, self.t_hat - 10.0) if np.isinf(lo) else lo
            hi = min(hi, self.t_hat + 10.0) if np.isinf(hi) else hi
            ts = np.linspace(lo, hi, 64)
            ts = ts[np.abs(ts) > 1e-6]
            dlog = self.p / ts  # (log rho)' for rho = |t|^p
            errs.append(float(np.abs(self.alpha(ts) + (2.0 / self.c) * dlog).max()))
        return max(errs)


def soliton_schedule(c: int, p: float = 0.5) -> SolitonSchedule:
    """Explicit (rho, alpha, t_hat, interval) for c in {-1, 0, 1}:
    c=+-1: rho=|t|^p, alpha=-+2p/t on the side of t_hat=-2pc; c=0: constants."""
    if c not in (-1, 0, 1):
        raise ValueError("c must be -1, 0 or 1")
    if not p > 0:
        raise ValueError("p must be positive")
    if c == 0:
        return SolitonSchedule(c=0, p=p, t_hat=0.0, interval=(-np.inf, np.inf))
    t_hat = -2.0 * p * c
    interval = (-np.inf, t_hat) if c == 1 else (t_hat, np.inf)
    return SolitonSchedule(c=c, p=p, t_hat=t_hat, interval=interval)


def soliton_residual(state: FlowState, x_field: np.ndarray) -> float:
    """Max-norm of Div T - X . T - pi7(skew grad X), zero for steady solitons.

    x_field is a vector field on the grid, shape grid_shape + (8,).
    """
    ev = evaluate(state)
    x_active = np.take(x_field, state.spec.active_axes, axis=-1)   # T_m = 0 off them
    x_hook_t = np.einsum("...m,...mab->...ab", x_active, ev.t_field)
    gx = lattice.fd_gradient_embedded(state.spec, x_field)
    skew = 0.5 * (gx - np.swapaxes(gx, -1, -2))
    nabla7 = pi7(skew, state.phi)
    return float(np.abs(ev.gen - x_hook_t - nabla7).max())


def convexity_gap(states):
    """Descriptive check of the energy-convexity bound along a run:
    d^2E/dt^2 >= integral (Lam - 3 |T|^2) |Div T|^2, with Lam the first
    nonzero eigenvalue of the rough Laplacian on 2-forms; on the flat torus
    Lam = (2 pi / L)^2 for the lowest mode.

    Takes three consecutive states on one lattice (else ValueError);
    returns (lhs, rhs, gap) with gap = lhs - rhs (nonnegative when the
    bound holds).
    """
    prev, mid, nxt = states
    spec = _one_lattice(states)
    lowest_eigenvalue = (2.0 * np.pi / spec.period) ** 2
    ev = evaluate(mid)
    e_prev, e_next = (lattice.energy(spec, evaluate(st).t_field) for st in (prev, nxt))
    dtm, dtp = mid.t - prev.t, nxt.t - mid.t
    d2e = (e_next - 2 * lattice.energy(spec, ev.t_field) + e_prev) / (dtm * dtp)
    tsq = lattice.torsion_norm_sq(ev.t_field)
    div_sq = np.einsum("...ab,...ab->...", ev.gen, ev.gen)
    rhs = lattice.integrate(spec, (lowest_eigenvalue - 3.0 * tsq) * div_sq)
    return d2e, rhs, d2e - rhs


def fit_type1_exponent(times, sup_torsion, blowup_time: float):
    """Least-squares slope of log sup|T| against log(tau - t); descriptive.

    A self-similar first-kind singularity gives slope -1/2 (sup|T| growing
    like 1/sqrt(tau - t)); smooth decaying runs give slope near 0.
    """
    times = np.asarray(times, dtype=float)
    sup_torsion = np.asarray(sup_torsion, dtype=float)
    mask = (blowup_time - times > 0) & (sup_torsion > 0)
    if mask.sum() < 2:
        raise ValueError("need at least two usable samples before the blow-up time")
    x = np.log(blowup_time - times[mask])
    y = np.log(sup_torsion[mask])
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)


# ---------------------------------------------------------------------------
# parabolic rescaling

def rescaled(c: float, value, power: int, what: str):
    """`value * c^power` in float64 (a float for a scalar `value`), dividing
    by c^-power for a negative power; ValueError, naming `what`, when the
    result is not finite or a nonzero value goes to 0."""
    with np.errstate(all="ignore"):
        scale = np.float64(c) ** abs(power)
        new = value * scale if power >= 0 else value / scale
    if not np.all(np.isfinite(new) & ((new != 0) | (value == 0))):
        raise ValueError(f"rescale factor {c:g} takes the {what} out of floating-point range")
    return new if isinstance(new, np.ndarray) else float(new)


def parabolic_rescale(state: FlowState, c: float):
    """Rescaled state (same components on period c L, t -> c^2 t) plus the
    relative errors of T -> T/c, Div T -> Div T/c^2 and, for j = 0, 1,
    |grad^j T| -> |grad^j T|/c^(1+j); the metric c^2 g on period L is the
    identity metric on period c L in the coordinates y = c x.

    Raises ValueError when c is not a finite positive number (`as_number`),
    or when `rescaled` refuses the period, the time or an expected report
    value."""
    c = as_number(float, c, "rescale factor")
    if not c > 0:
        raise ValueError(f"rescale factor must be positive, got {c:g}")
    t_old, div_old = evaluate(state)
    gt_old = lattice.fd_gradient_generic(state.spec, t_old)
    expected = {key: rescaled(c, val, -power, key) for key, val, power in (
        ("torsion_scaling", t_old, 1), ("divergence_scaling", div_old, 2),
        ("norm_scaling_j0", np.linalg.norm(t_old), 1),
        ("norm_scaling_j1", np.linalg.norm(gt_old), 2))}
    new = FlowState(spec=replace(state.spec, period=rescaled(c, state.spec.period, 1, "period")),
                    phi=state.phi, t=rescaled(c, state.t, 2, "time"), step=state.step)
    t_new, div_new = evaluate(new)
    gt_new = lattice.fd_gradient_generic(new.spec, t_new)

    report = {}
    for key, new_val in (("torsion_scaling", t_new), ("divergence_scaling", div_new),
                         ("norm_scaling_j0", np.linalg.norm(t_new)),
                         ("norm_scaling_j1", np.linalg.norm(gt_new))):
        scale = max(float(np.abs(expected[key]).max()), 1e-300)
        report[key] = float(np.abs(new_val - expected[key]).max()) / scale
    return new, report
