"""
A two-parameter solvable family: curvature sign along the flow
==============================================================

The 4-dimensional algebra mu(e0, ei) = alpha diag(lam, 1-lam, 1) ei,
mu(e1, e2) = h e3 has exact flow alpha(t) = (2 c t + alpha0^-2)^(-1/2),
h(t) = (3t+1)^(-1/2) with c = lam^2 + (1-lam)^2 + 1.  The sectional
curvature of the (e1, e3) plane is h^2/4 - lam alpha^2, so its sign can
switch in finite time as the two scales decay at different rates.
Each of these is a plain function of (lam, alpha0, t) or (lam, alpha, h).
"""

import math

import numpy as np

from solvflow import (
    c_lambda,
    certify_algebraic_soliton,
    ejsol_algebra,
    ejsol_curvature_crossing,
    ejsol_exact,
    ejsol_k13,
    soliton_alpha,
)

# --- the soliton scale ------------------------------------------------------
# For every lam there is one alpha making the metric a soliton.

print("soliton certification across lam:")
for lam in (0.1, 0.2679, 1.0, 3.8):
    alpha = soliton_alpha(lam)
    v = certify_algebraic_soliton(ejsol_algebra(lam, alpha))
    k = ejsol_k13(lam, alpha, 1.0)
    print(f"  lam={lam:6.4f}  alpha*={alpha:.4f}  {v.label:15s} "
          f"K(e1,e3)={k:+.5f}")

# The sign of K at the soliton scale flips at lam = 2 - sqrt(3) and
# flips back at 2 + sqrt(3); the two printed sign changes above bracket
# those thresholds (2 - sqrt(3) = 0.2679..., 2 + sqrt(3) = 3.7320...).
print(f"  thresholds: {2 - math.sqrt(3):.4f}, {2 + math.sqrt(3):.4f}")

# --- curvature switching on in finite time ----------------------------------
# Away from the soliton scale the flow changes the balance between h
# and alpha, and K(e1, e3) can cross zero at a computable time.

lam, alpha0 = 0.2, 10.0
t0 = ejsol_curvature_crossing(lam, alpha0)
print(f"\nlam={lam}, alpha0={alpha0}: predicted crossing t0 = {t0:.4f}")
for t in np.linspace(0.0, 2.0, 9):
    alpha, h = ejsol_exact(lam, alpha0, float(t))
    marker = "<-- sign change here" if abs(t - t0) < 0.125 else ""
    print(f"  t={t:5.2f}  alpha={alpha:.4f}  h={h:.4f}  "
          f"K={ejsol_k13(lam, alpha, h):+.6f} {marker}")

# Starting at the soliton scale instead, the crossing happens at t = 0:
# the soliton metric already has K >= 0 for this lam, and keeps it.
print(f"\nat the soliton scale: t0 = "
      f"{ejsol_curvature_crossing(lam, soliton_alpha(lam)):.1f}, "
      f"c_lambda = {c_lambda(lam):.2f}")
