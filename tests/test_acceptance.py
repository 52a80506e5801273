"""The paper's twelve acceptance criteria, one test each.

Each criterion is the registry check `cNN-<name>` of `solvflow.validate`,
run as `solvflow validate --seed 0` runs it, and its test is
`test_cNN_<name>`: `pytest tests/test_acceptance.py -k c09` runs one.
"""

from solvflow import validate
from conftest import CRITERION, assert_check_passes


def _criterion_test(name):
    def test():
        assert_check_passes(name)
    test.__name__ = "test_" + name.replace("-", "_")
    return test


for _name in filter(CRITERION.match, validate._CHECKS):
    _test = _criterion_test(_name)
    globals()[_test.__name__] = _test
