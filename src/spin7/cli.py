"""Command-line driver.

    spin7 verify [--json]
    spin7 flow run --config <path> --out <dir>
    spin7 flow resume --checkpoint <path> --out <dir>
    spin7 theta --checkpoint C1 [C2 ...] --t0 T [--center i,j,...] --out-csv F
    spin7 entropy --checkpoint C --sigma S [--t-samples N] [--x-stride K] --out-csv F
    spin7 rescale --checkpoint C --factor c --out-checkpoint F [--report-csv F]
    spin7 soliton-check --checkpoint C [--x-seed N] --out-csv F

Exit codes: 0 success, 1 verification failure, 2 config error, 3 runtime
abort.  SPIN7_THREADS caps parallelism; the engine itself is
single-threaded for bit-stable output, so any positive cap is honored by
pinning the linear-algebra backend to one thread.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from datetime import datetime, timezone


def _pin_threads() -> None:
    # must run before numpy is imported anywhere in this process
    cap = os.environ.get("SPIN7_THREADS")
    if cap is not None:
        try:
            if int(cap) < 1:
                raise ValueError
        except ValueError:
            print(f"error: SPIN7_THREADS={cap!r} is not a positive integer", file=sys.stderr)
            raise SystemExit(2)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, "1")


_pin_threads()

import numpy as np  # noqa: E402

from . import flow, storage, verify  # noqa: E402
from .flow import FlowAbort, FlowConfig  # noqa: E402
from .lattice import LatticeSpec, as_object  # noqa: E402


class ConfigError(ValueError):
    pass


# Errors a run reports as `abort: ...` and exit 3 once its manifest says
# `running`; raised before that, `main` reports them as config errors (exit 2).
# ConfigError, CheckpointError and DegenerateFormError are ValueErrors.  An
# OSError exits 3 wherever it is raised.
_RUN_ERRORS = (FlowAbort, ValueError, ArithmeticError, MemoryError)


def _describe(exc: BaseException) -> str:
    # any but the typed errors keeps its type name: a library fault stays diagnosable
    if isinstance(exc, (ConfigError, storage.CheckpointError, FlowAbort)):
        return str(exc)
    return f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# config parsing (strict: unknown keys are errors)

# FlowConfig reads its own numbers.  "integrator" is legacy: older configs
# carry "lie-euler", its only value
_INITIAL_KEYS = ("family", "params", "seed")
_TOP_KEYS = (({f.name for f in fields(FlowConfig)} - {"spec", *_INITIAL_KEYS})
             | {"lattice", "initial", "integrator"})


def parse_config(config_dict: dict) -> FlowConfig:
    root = as_object(config_dict, "config", _TOP_KEYS, ("lattice",))
    init = as_object(root.get("initial", {}), "initial", _INITIAL_KEYS)
    if root.get("integrator", "lie-euler") != "lie-euler":
        raise ConfigError(f"unknown integrator {root['integrator']!r}: only 'lie-euler' is "
                          "supported (the Euler integrator was removed)")
    top = {k: v for k, v in root.items() if k not in ("lattice", "initial", "integrator")}
    return FlowConfig(spec=LatticeSpec.from_dict(root["lattice"]), **init, **top)


def load_config(path: str) -> tuple[FlowConfig, dict]:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    return parse_config(raw), raw


# ---------------------------------------------------------------------------
# subcommands

def cmd_verify(args) -> int:
    results = verify.run_suite()
    if args.json:
        print(json.dumps([r.as_dict() for r in results], indent=2))
    else:
        width = max(len(r.name) for r in results)
        for r in results:
            status = "ok  " if r.passed else "FAIL"
            print(f"{status}  {r.name:<{width}}  max err {r.max_error:.3e}  "
                  f"(tol {r.tolerance:.1e})")
    failing = [r for r in results if not r.passed]
    if failing:
        print(f"verification FAILED: {failing[0].name}", file=sys.stderr)
        return 1
    return 0


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _run_and_write(config: FlowConfig, raw_config: dict, out_dir: str,
                   state=None, prev_record=None) -> int:
    os.makedirs(out_dir, exist_ok=True)
    manifest_path = os.path.join(out_dir, "manifest.json")
    started = _now()
    storage.write_manifest(manifest_path, raw_config, config.seed, config.spec,
                           started, None, "running")
    writer = storage.SeriesWriter(os.path.join(out_dir, "series.csv"))

    def on_checkpoint(st, prev):
        path = os.path.join(out_dir, f"ckpt_{st.step:08d}.s7fl")
        storage.write_checkpoint(path, st, prev_record=prev, config_dict=raw_config)

    try:
        result = flow.run_flow(config, state=state, prev_record=prev_record,
                               on_record=writer.append, on_checkpoint=on_checkpoint)
    except _RUN_ERRORS as exc:
        writer.flush()
        storage.write_manifest(manifest_path, raw_config, config.seed, config.spec,
                               started, _now(), f"abort: {_describe(exc)}")
        print(f"runtime abort: {_describe(exc)}", file=sys.stderr)
        return 3
    writer.flush()
    storage.write_manifest(manifest_path, raw_config, config.seed, config.spec,
                           started, _now(), result.exit_reason)
    print(f"flow finished: {result.exit_reason} at t={result.state.t:.6g} "
          f"({result.state.step} steps, {len(result.records)} records)")
    return 0


def cmd_flow_run(args) -> int:
    config, raw = load_config(args.config)
    # built before the manifest, so bad initial data leaves no `running` run behind
    state = flow.initial_data(config.family, config.params, config.spec, config.seed)
    return _run_and_write(config, raw, args.out, state=state)


def cmd_flow_resume(args) -> int:
    loaded = storage.read_checkpoint(args.checkpoint)
    if loaded.config_dict is None:
        raise ConfigError("checkpoint carries no run config; cannot resume")
    config, raw = parse_config(loaded.config_dict), loaded.config_dict
    if config.spec != loaded.state.spec:
        raise ConfigError("checkpoint lattice disagrees with its embedded config")
    # tested at resume, not in read_checkpoint: the analysis commands read
    # many checkpoints per call and flow none of them
    flow.require_admissible(loaded.state, f"checkpoint {args.checkpoint}")
    return _run_and_write(config, raw, args.out, state=loaded.state,
                          prev_record=loaded.prev_record)


def _parse_center(text: str | None, spec) -> tuple[int, ...]:
    # theta_functional counts the indices and wraps them; a command line
    # index outside the grid is refused here instead
    if text is None:
        return (spec.points // 2,) * spec.n_axes
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ConfigError(f"--center needs comma-separated grid indices, got {text!r}") from None
    if not all(0 <= p < spec.points for p in parts):
        raise ConfigError(f"--center indices must lie in [0, {spec.points}), got {text!r}")
    return parts


def cmd_theta(args) -> int:
    states = [storage.read_checkpoint(p).state for p in args.checkpoint]
    center = _parse_center(args.center, states[0].spec)
    vals = flow.theta_functional(states, center, args.t0)
    rows = [(st.t, v) for st, v in zip(states, vals)]
    storage.write_series_csv(args.out_csv, rows, ("t", "theta"))
    print(f"theta: {len(rows)} rows -> {args.out_csv}")
    return 0


def cmd_entropy(args) -> int:
    state = storage.read_checkpoint(args.checkpoint).state
    val = flow.entropy(state, args.sigma, t_samples=args.t_samples, x_stride=args.x_stride)
    storage.write_series_csv(args.out_csv, [(args.sigma, val)], ("sigma", "entropy"))
    print(f"entropy({args.sigma:g}) = {val:.16e} -> {args.out_csv}")
    return 0


def cmd_rescale(args) -> int:
    loaded = storage.read_checkpoint(args.checkpoint)
    c, prev, raw = args.factor, loaded.prev_record, loaded.config_dict
    new_state, report = flow.parabolic_rescale(loaded.state, c)
    # the same run on the larger torus, so that `flow resume` continues it
    if prev is not None:
        # E is the integral of |T|^2 (scaling c^-2) over a volume scaling c^8
        prev = (flow.rescaled(c, prev[0], 2, "previous record time"),
                flow.rescaled(c, prev[1], 6, "previous record energy"))
    if raw is not None:
        config = parse_config(raw)
        raw = dict(raw, lattice=new_state.spec.to_dict(),
                   div_tol=flow.rescaled(c, config.div_tol, -2, "div_tol"))
        if config.t_end is not None:
            raw["t_end"] = flow.rescaled(c, config.t_end, 2, "t_end")
    storage.write_checkpoint(args.out_checkpoint, new_state, prev_record=prev,
                             config_dict=raw)
    if args.report_csv:
        cols = tuple(sorted(report))
        storage.write_series_csv(args.report_csv, [tuple(report[c] for c in cols)], cols)
    worst = max(report.values())
    print(f"rescale c={args.factor:g}: worst identity error {worst:.3e} "
          f"-> {args.out_checkpoint}")
    return 0 if worst < 1e-12 else 3


def cmd_soliton_check(args) -> int:
    if args.x_seed is not None and args.x_seed < 0:
        raise ConfigError(f"--x-seed must be >= 0, got {args.x_seed}")
    state = storage.read_checkpoint(args.checkpoint).state
    if args.x_seed is None:
        x_field = np.zeros(state.spec.grid_shape + (8,))
    else:
        rng = np.random.default_rng(args.x_seed)
        x_field = np.broadcast_to(rng.standard_normal(8),
                                  state.spec.grid_shape + (8,)).copy()
    residual = flow.soliton_residual(state, x_field)
    storage.write_series_csv(args.out_csv, [(state.t, residual)], ("t", "residual"))
    print(f"soliton residual at t={state.t:.6g}: {residual:.16e} -> {args.out_csv}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="spin7",
                                description="Cayley-form flow laboratory")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the exact-identity suite")
    v.add_argument("--json", action="store_true")
    v.set_defaults(func=cmd_verify)

    fl = sub.add_parser("flow", help="run or resume the gradient flow")
    fsub = fl.add_subparsers(dest="flow_command", required=True)
    fr = fsub.add_parser("run")
    fr.add_argument("--config", required=True)
    fr.add_argument("--out", required=True)
    fr.set_defaults(func=cmd_flow_run)
    fs = fsub.add_parser("resume")
    fs.add_argument("--checkpoint", required=True)
    fs.add_argument("--out", required=True)
    fs.set_defaults(func=cmd_flow_resume)

    th = sub.add_parser("theta", help="localized torsion functional over checkpoints")
    th.add_argument("--checkpoint", nargs="+", required=True)
    th.add_argument("--t0", type=float, required=True)
    th.add_argument("--center", default=None, help="grid indices, comma-separated")
    th.add_argument("--out-csv", required=True)
    th.set_defaults(func=cmd_theta)

    en = sub.add_parser("entropy", help="scale-maximized torsion concentration")
    en.add_argument("--checkpoint", required=True)
    en.add_argument("--sigma", type=float, required=True)
    en.add_argument("--t-samples", type=int, default=16)
    en.add_argument("--x-stride", type=int, default=1)
    en.add_argument("--out-csv", required=True)
    en.set_defaults(func=cmd_entropy)

    rs = sub.add_parser("rescale", help="parabolic rescaling with exactness report")
    rs.add_argument("--checkpoint", required=True)
    rs.add_argument("--factor", type=float, required=True)
    rs.add_argument("--out-checkpoint", required=True)
    rs.add_argument("--report-csv", default=None)
    rs.set_defaults(func=cmd_rescale)

    so = sub.add_parser("soliton-check", help="stationary-soliton residual")
    so.add_argument("--checkpoint", required=True)
    so.add_argument("--x-seed", type=int, default=None,
                    help="seed for a constant random vector field (default: zero field)")
    so.add_argument("--out-csv", required=True)
    so.set_defaults(func=cmd_soliton_check)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _RUN_ERRORS as exc:
        print(f"config error: {_describe(exc)}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"runtime abort (i/o): {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
