"""The invariant registry `validate._CHECKS`, one pytest case per check.

The acceptance criteria c01-c12 run in `test_acceptance.py`; a check
merged into one keeps its case here, which asserts its part of the
criterion.  `pytest tests/test_validate.py -k <check-name>` runs one check
with the same inputs it gets in `solvflow validate --seed 0`.
"""

import pathlib
import re

import numpy as np
import pytest

from solvflow import (
    FlowKind,
    bracket_rhs,
    casebook,
    flow,
    heintze_check,
    mu_of_a,
    sample_sectional,
    validate,
)
from conftest import (
    CRITERION, assert_check_passes, assert_parts_pass, check_parts,
)

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


# checks merged into an acceptance criterion, each with the part of the
# criterion's report that carries its invariant
_C02, _C03, _C05 = ("c02-algebraic-identities", "c03-monotone-quantities",
                    "c05-ricci-cross-validation")
_MERGED = {
    "trace-of-commutator": (_C02, "|tr[X,Y]|/(||X|| ||Y||)"),
    "skew-pairing": (_C02, "|<A,[A,At]>|/||A||^3"),
    "bracket-pairing": (
        _C02, "<A,[A,[A,At]]> + ||[A,At]||^2 over ||[A,At]||^2"),
    "norm-decay-identity": (
        _C02, "2<RHS,A> = -2tr(S^2)||A||^2 - ||[A,At]||^2, relative"),
    "gradient-vs-finite-difference": (
        _C02, "gradient flow RHS vs -grad F by differences"),
    "bracket-monitors": (_C03, "monitor_suite flags, bracket runs"),
    "symmetric-decay-bound": (_C03, "tr(S^2)(2t + 1/tr(S(A0)^2)) - 1"),
    "normalized-monitors": (_C03, "monitor_suite flags, normalized runs"),
    "spectrum-scaling": ("c04-spectrum-scaling",
                         "Spec(A(t)) - a(t) Spec(A0) over max(1, |a| ||A0||)"),
    "ricci-dual-route": (_C05, "Ricci block vs structure-constant route"),
    "scalar-curvature-formula": (
        _C05, "scalar vs -tr(S^2) - tr(A)^2, relative"),
    "flat-iff-skew": ("c06-flatness-and-skew-limits",
                      "flat-iff-skew mismatches"),
    "family-exact-vs-ode": ("c08-solvable-family-numbers",
                            "bracket flow vs exact alpha(t), h(t)"),
}


@pytest.mark.parametrize("name", [n for n in validate._CHECKS
                                  if not CRITERION.match(n)] + list(_MERGED))
def test_check(name):
    if name in _MERGED:
        assert_parts_pass(*_MERGED[name])
    else:
        assert_check_passes(name)


def test_single_limit_window_at_seed_95():
    # a traceless 3x3 start that approaches its nilpotent soliton so slowly
    # that four stages of the check's t_end = 200 do not get it there
    assert validate.run_check("single-limit-window", 95).passed


def test_registry_holds_every_check_once():
    registered = [fn.__name__ for fn in validate._CHECKS.values()]
    defined = [name for name in vars(validate) if name.startswith("check_")]
    assert sorted(registered) == sorted(defined)
    # each acceptance criterion is exactly one entry
    for num in range(1, 13):
        assert sum(name.startswith(f"c{num:02d}-")
                   for name in validate._CHECKS) == 1
    # README states the count; it must follow the registry
    counts = re.findall(r"(\d+) self-checks", README.read_text())
    assert counts and {int(c) for c in counts} == {len(validate._CHECKS)}


def test_check_alone_matches_a_run_with_others(monkeypatch):
    # the checks before it in a run draw from their own generators
    alone = validate.run_check("trace-square-identity")
    names = ["antidiagonal-closure", "riemann-scaling", "trace-square-identity"]
    monkeypatch.setattr(validate, "_CHECKS",
                        {name: validate._CHECKS[name] for name in names})
    report = validate.run_validation(0)
    assert [c.name for c in report.checks] == names
    assert report.checks[-1] == alone


def test_c09_limit_parts_fail_with_one_sign_flipped(monkeypatch):
    # y' = y(x+y)(x-3y)/2 with -3y turned into +3y, on c09's sweep over a
    # 9x9 grid: the parts that place each limit by the first integral and
    # the sign rule x0*y0 < 0 must both fail
    def flipped(a):
        v = bracket_rhs(a)
        x, y = a[..., 0, 1], a[..., 1, 0]
        v[..., 1, 0] = y * (x + y) * (x + 3.0 * y) / 2.0
        return v

    grid = casebook.default_phase_grid(points=9)
    monkeypatch.setattr(casebook, "default_phase_grid", lambda: grid)
    rng = np.random.default_rng(0)
    assert validate.check_c09_phase_plane_atlas(rng)[0] <= 1.0
    monkeypatch.setitem(flow._RHS, FlowKind.BRACKET, flipped)
    parts = check_parts(validate.check_c09_phase_plane_atlas(rng)[2])
    for label in ("antiskew labels off the rule x0*y0 < 0",
                  "antiskew |x_inf| vs the first integral, relative"):
        residual, tolerance = parts[label]
        assert residual > tolerance, label


# Matrices, with the seeds of their 1000 random planes, on which every
# sampled curvature is negative although condition (c) of the Heintze
# check fails by 1e-3 to 6e-2.  The witness plane (e_0, v) shows K > 0.
_SAMPLING_MISSES = [
    (489222319, [[-0.32443044978170693, 0.5178067782316517],
                 [-0.38573231728354107, -1.095641449371268]]),
    (1630888747, [[-0.717123956278735, -0.5092044214852102,
                   1.1568656771772232],
                  [-0.7562785409143502, -2.0601480506839245,
                   0.27223629639086233],
                  [-1.0692940942018925, 0.3188684740762941,
                   -0.9680367984828817]]),
    (736399116, [[2.012198456087248, -0.016333489996839354,
                  0.4306882494188599],
                 [0.5557649944114046, 2.8255567957450576,
                  -1.6621747029911433],
                 [-0.059541215360352444, -0.40758980362535413,
                  1.088663672411058]]),
    (411005040, [[-1.841769325297217, 1.6271487654025518,
                  -0.0054012594369110736],
                 [0.3125393816284884, -1.1102195563734856,
                  -0.8326004274831877],
                 [1.4864888197722206, -0.14892244991148806,
                  -1.3843559397042526]]),
    (927092449, [[-0.6758558097571905, 0.5128765334477352,
                  0.9865954935526833],
                 [-0.42979180927394295, -0.43867867463551996,
                  -0.12534134487953832],
                 [-0.9605754610988503, 0.5942201387835534,
                  -0.9905644155794617]]),
]


def test_witness_planes_catch_sampling_misses():
    for plane_seed, rows in _SAMPLING_MISSES:
        a = np.array(rows)
        sampled = sample_sectional(mu_of_a(a), num_planes=1000,
                                   seed=plane_seed)
        assert np.max(sampled) < 0.0
        assert not heintze_check(a).negative
        assert validate._heintze_agrees_with_sample(a, plane_seed)
