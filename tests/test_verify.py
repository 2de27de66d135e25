"""Every check that ``hurwitzcf verify all`` reports, one test id per check.

The ids are the ``verify all`` names (``suite.check``), so a check
registered in ``hurwitzcf.verify`` runs here with no further test code.
"""

import pytest

from hurwitzcf.config import RunConfig
from hurwitzcf.verify import CHECKS

NAMES = [f"{suite}.{name}" for suite, checks in CHECKS.items() for name in checks]


@pytest.mark.parametrize("name", NAMES)
def test_registered_check(name):
    suite, _, check = name.partition(".")
    ok, witness = CHECKS[suite][check](RunConfig())
    assert ok, witness
