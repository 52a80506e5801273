"""
Matrix bracket flow: decay laws and long-time limits
====================================================

Integrates the flow A' = -tr(S(A)^2) A + [A,[A,A^T]]/2 - tr(A)[A,A^T]/2
for a few starting matrices and checks what the diagnostics show:
norms decay, symmetric parts die out, and the trajectory comes to rest
on a skew-symmetric matrix (possibly zero).
"""

import numpy as np

from solvflow import FlowKind, FlowSpec, frob_norm, integrate, settle

# --- a case with a known exact solution ------------------------------------
# diag(1,-1) evolves as (4t+1)^(-1/2) diag(1,-1); compare at the samples.

a0 = np.diag([1.0, -1.0])
spec = FlowSpec(kind=FlowKind.BRACKET, a0=a0, t_end=10.0,
                rel_tol=1e-10, sample_stride=1.0)
traj = integrate(spec)

print("diag(1,-1) against the exact decay law:")
for t, a in zip(traj.times, traj.states):
    exact = (4.0 * t + 1.0) ** -0.5
    print(f"  t={t:5.1f}  a11={a[0, 0]:.8f}  exact={exact:.8f}  "
          f"err={abs(a[0, 0] - exact):.2e}")

# --- monotone diagnostics ---------------------------------------------------
# For any start, ||A||^2 and tr(S(A)^2) never increase.  Start from
# something messy and look at a few rows.

rng = np.random.default_rng(7)
b0 = rng.standard_normal((3, 3))
traj = integrate(FlowSpec(kind=FlowKind.BRACKET, a0=b0, t_end=5.0,
                          sample_stride=0.5))
print("\nrandom 3x3 start, monotone quantities:")
print("  t     ||A||^2    tr(S^2)")
d = traj.diagnostics
for t, norm_sq, tr_s2 in zip(traj.times[::2], d.norm_sq[::2], d.tr_s2[::2]):
    print(f"  {t:4.1f}  {norm_sq:9.5f}  {tr_s2:9.5f}")

# --- settling on the attractor ----------------------------------------------
# settle() integrates in stages until the state stops moving.  The limit
# is always skew-symmetric; for this start it is nonzero.

c0 = np.array([[0.0, 2.0], [-1.0, 0.0]])
spec = FlowSpec(kind=FlowKind.BRACKET, a0=c0, t_end=1e12,
                rel_tol=1e-8, sample_stride=2e10)
traj, t_rest = settle(spec)
a_inf = traj.states[-1]
print("\n[[0,2],[-1,0]] settles by t ~ %.3g on:" % t_rest)
print(np.array_str(a_inf, precision=6, suppress_small=True))
print("skew residual ||A+A^T|| = %.2e" % frob_norm(a_inf + a_inf.T))
