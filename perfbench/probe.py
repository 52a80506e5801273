"""Set-up probe: one fresh interpreter doing exactly the benchmark's set-up.

    python3 perfbench/probe.py <workload> <seed> <workdir>

Imports solvflow, makes a first LAPACK call and generates the workload's
inputs, then exits.  `run.py` times several of these from spawn to exit and
reports the median as `setup_s`.
"""

import pathlib
import sys

import env


def setup(workload, seed, workdir):
    """The untimed set-up of a run; returns the workload and its inputs."""
    import numpy as np

    import workloads

    np.linalg.svd(np.eye(3))  # first LAPACK call: loads and initialises BLAS
    np.linalg.eigvals(np.eye(3))
    wl = workloads.WORKLOADS[workload]
    return wl, wl.generate(seed, workdir)


if __name__ == "__main__":
    env.prepare()
    setup(sys.argv[1], int(sys.argv[2]), pathlib.Path(sys.argv[3]))
