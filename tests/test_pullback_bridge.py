"""The two auxiliary integrations that reconstruct the flow from frames.

The pullback system recovers A(t) = (1/b) phi A0 phi^{-1}; the bridge
retraces the bracket flow as a rescaled, time-changed gradient-descent
curve.  What they reproduce is checked by the `pullback-reconstruction`
and `c10-reparameterization-bridge` entries of `solvflow.validate`, and
asserted here part by part; the error contracts are tested directly.
"""

import numpy as np
import pytest

from solvflow import (
    FlowKind,
    FlowSpec,
    cointegrate_pullback,
    frob_norm,
    integrate,
    reparam_bridge,
)
from conftest import assert_check_passes, assert_parts_pass, random_matrix


def test_pullback_scaling_diag_case():
    # A(t) = (4t+1)^(-1/2) A0 and phi commutes with A0: b = (4t+1)^(1/2)
    assert_parts_pass("pullback-reconstruction", "diag(1,-1): truncated",
                      "diag(1,-1): b vs its law",
                      "diag(1,-1): reconstruction residual")


def test_pullback_scaling_nilpotent_case():
    # b' = tr(S^2) b with tr(S^2) = 1/(2(3t+1)) gives b = (3t+1)^(1/6)
    assert_parts_pass("pullback-reconstruction", "E12: truncated",
                      "E12: b vs its law", "E12: reconstruction residual")


def test_pullback_reconstructs_random_runs():
    assert_parts_pass("pullback-reconstruction",
                      "reconstruction residual, random starts")


def test_pullback_requires_bracket_kind(rng):
    b0 = random_matrix(rng, 2)
    b0 /= frob_norm(b0)
    spec = FlowSpec(kind=FlowKind.NORMALIZED, a0=b0, t_end=1.0)
    with pytest.raises(ValueError):
        cointegrate_pullback(integrate(spec))


def test_bridge_traceless_random():
    # residual, tau strictly increasing and c non-increasing on 10 starts
    assert_check_passes("c10-reparameterization-bridge")


def test_bridge_rejects_nonzero_trace():
    with pytest.raises(ValueError):
        reparam_bridge(np.eye(2), t_end=1.0)
