"""Fixed reference kernels that measure how fast the machine is right now.

On a shared virtual machine the speed of one core changes by up to 1.8x for
stretches of seconds to minutes, while the work a pass does stays fixed.  A
run therefore times a reference kernel between the workload's items and
reports the workload's times in units of the kernel's time ("ref"): a slower
stretch of the machine slows both, and their ratio stays put.  The kernels
are the benchmark's own code; no change to solvflow can move them.

Python-level work and dense LAPACK work do not slow down together on such a
machine, so each workload names the kernel that does the kind of work it
does most:

* `steps`: Dormand-Prince steps of the 2x2 bracket flow, written the way a
  Python RK stepper writes them (stage sums over small numpy arrays, an
  error norm, step-size control).  `sweep` and `longrun` spend nearly all
  their time in such steps.
* `svd`: the full SVD of a fixed 729 x 81 matrix, the shape of the
  d^3 x d^2 matrix `derivation_basis` decomposes at d = 9.  `certify` spends
  most of its time in that SVD at d up to 15.

Each call takes 30-45 ms on a 2-vCPU x86_64 VM with one BLAS thread.
"""

import numpy as np

# Dormand-Prince 5(4) tableau
_A = ((), (1 / 5,), (3 / 40, 9 / 40), (44 / 45, -56 / 15, 32 / 9),
      (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
      (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
      (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84))
_B = _A[6] + (0.0,)
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525,
      -1 / 40)

_SVD_INPUT = np.random.default_rng(0).standard_normal((9**3, 9**2))


def _bracket(a):
    s = 0.5 * (a + a.T)
    c = a @ a.T - a.T @ a
    return (-float(np.sum(s * s)) * a + 0.5 * (a @ c - c @ a)
            - 0.5 * np.trace(a) * c)


def steps(count=150, h_max=1e-2):
    y = np.array([[0.3, 1.0], [-0.2, 0.5]])
    f = _bracket(y)
    h = h_max
    for _ in range(count):
        k = [f]
        for i in range(1, 7):
            k.append(_bracket(y + h * sum(a * kj for a, kj in zip(_A[i], k))))
        y_new = y + h * sum(b * kj for b, kj in zip(_B, k) if b != 0.0)
        err = h * sum(e * kj for e, kj in zip(_E, k) if e != 0.0)
        q = float(np.linalg.norm(err)) / (1e-10 * float(np.linalg.norm(y)))
        h = min(h_max, h * min(5.0, max(0.2, 0.9 * max(q, 1e-10)**-0.2)))
        y, f = y_new, k[6]
    return y


def svd():
    return np.linalg.svd(_SVD_INPUT)


KERNELS = {"steps": steps, "svd": svd}
