#!/usr/bin/env python3
"""Drive a flow config and print the descriptive diagnostics.

Besides the standard series columns this reports the convexity-gap
inequality along the run and, descriptively, the best-fit singularity
exponent of sup|T| against a hypothetical blow-up time (near 0 for
decaying runs; -1/2 would indicate first-kind self-similar blow-up).
"""

import argparse

from spin7.cli import load_config
from spin7.flow import convexity_gap, fit_type1_exponent, flow_step, run_flow


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", required=True)
    args = ap.parse_args()
    config, _ = load_config(args.config)

    res = run_flow(config)
    recs = res.records
    print(f"exit: {res.exit_reason} after {res.state.step} steps, t = {res.state.t:.6g}")
    print(f"E: {recs[0].E:.6e} -> {recs[-1].E:.6e}   "
          f"max|T|: {recs[0].maxT:.4e} -> {recs[-1].maxT:.4e}")
    print(f"worst metric drift {max(r.metric_drift for r in recs):.2e}, "
          f"worst generator 21-defect {max(r.omega21_defect for r in recs):.2e}")

    dt = config.dt
    mid = flow_step(res.state, dt)
    nxt = flow_step(mid, dt)
    lhs, rhs, gap = convexity_gap((res.state, mid, nxt))
    flag = "" if gap >= -1e-10 * max(1.0, abs(lhs)) else "  [VIOLATED]"
    print(f"convexity bound at endpoint: d2E/dt2 = {lhs:.4e} >= {rhs:.4e}{flag}")

    if len(recs) > 3 and recs[-1].maxT > 0:
        tau_guess = 2 * recs[-1].t + 10 * dt
        slope = fit_type1_exponent([r.t for r in recs], [r.maxT for r in recs],
                                   tau_guess)
        print(f"descriptive sup|T| exponent vs (tau - t), tau = {tau_guess:.3g}: "
              f"{slope:+.3f}  (first-kind self-similar blow-up would give -0.5)")


if __name__ == "__main__":
    main()
