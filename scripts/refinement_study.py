#!/usr/bin/env python3
"""Refinement study: measured convergence orders of the lattice operators.

Prints the torsion-reconstruction error, the unprojected-divergence
7-summand defect, and the flat-space identity residuals (two active axes)
under N -> 2N refinement, with the observed orders.
"""

import argparse

import numpy as np

from spin7.flow import initial_data
from spin7.lattice import (LatticeSpec, bianchi_residual, div_torsion, ricci_residual,
                           scalar_residual, fd_gradient_generic, torsion)
from spin7.algebra import pi7, unpack4


def orders(errs):
    return [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]


def reconstruction_error(spec, state):
    phi_d = state.phi_dense()
    tm = torsion(spec, state.phi)[..., spec.active_axes[0], :, :]
    grad = unpack4(fd_gradient_generic(spec, state.phi))[..., 0, :, :, :, :]
    recon = (np.einsum("...ip,...pjkl->...ijkl", tm, phi_d)
             + np.einsum("...jp,...ipkl->...ijkl", tm, phi_d)
             + np.einsum("...kp,...ijpl->...ijkl", tm, phi_d)
             + np.einsum("...lp,...ijkp->...ijkl", tm, phi_d))
    return float(np.abs(recon - grad).max())


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--order", type=int, default=2, choices=(2, 4))
    ap.add_argument("--sizes", type=int, nargs="+", default=[16, 32, 64])
    args = ap.parse_args()

    print(f"stencil order {args.order}; sizes {args.sizes}")
    rec, dd = [], []
    for n in args.sizes:
        spec = LatticeSpec(active_axes=(0,), points=n, stencil_order=args.order)
        st = initial_data("rotation-field", {"eps": 0.05}, spec, seed=1)
        rec.append(reconstruction_error(spec, st))
        st2 = initial_data("random-smooth", {"eps": 0.05, "kmax": 2}, spec, seed=3)
        t2 = torsion(spec, st2.phi)
        raw = div_torsion(spec, t2)
        dd.append(float(np.abs(raw - pi7(raw, st2.phi)).max()))
    print(f"reconstruction errors {['%.3e' % e for e in rec]}  "
          f"orders {['%.2f' % p for p in orders(rec)]}")
    print(f"divergence 7-defect   {['%.3e' % e for e in dd]}  "
          f"orders {['%.2f' % p for p in orders(dd)]}")

    eb, er, es = [], [], []
    sizes2 = [max(8, n // 2) for n in args.sizes]
    for n in sizes2:
        spec = LatticeSpec(active_axes=(0, 1), points=n, stencil_order=args.order)
        st = initial_data("random-smooth", {"eps": 0.05, "kmax": 2}, spec, seed=11)
        t = torsion(spec, st.phi)
        eb.append(bianchi_residual(spec, t))
        er.append(ricci_residual(spec, t))
        es.append(scalar_residual(spec, t))
    print(f"two-axis sizes {sizes2}")
    for name, errs in (("bianchi", eb), ("ricci  ", er), ("scalar ", es)):
        print(f"{name} residuals {['%.3e' % e for e in errs]}  "
              f"orders {['%.2f' % p for p in orders(errs)]}")


if __name__ == "__main__":
    main()
