"""Every check that ``hurwitzcf verify all`` reports, one test id per check.

The ids are the ``verify all`` names (``suite.check``), so a check
registered in ``hurwitzcf.verify`` runs here with no further test code.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hurwitzcf import ifs
from hurwitzcf.config import RunConfig
from hurwitzcf.verify import CHECKS

NAMES = [f"{suite}.{name}" for suite, checks in CHECKS.items() for name in checks]


@pytest.mark.parametrize("name", NAMES)
def test_registered_check(name):
    suite, _, check = name.partition(".")
    ok, witness = CHECKS[suite][check](RunConfig())
    assert ok, witness


def test_ifs_checks_survive_optimised_python():
    # `python -O` strips assert statements; the checks must not rely on them
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-O", "-m", "hurwitzcf.cli", "verify", "ifs"],
                            env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr


def test_contraction_check_names_both_values(monkeypatch):
    monkeypatch.setattr(ifs, "CONTRACTION_SUP", Fraction(1, 5))
    ok, witness = CHECKS["ifs"]["contraction_sup_two_ninths"](RunConfig())
    assert not ok
    assert witness == {"sup": "2/9", "expected": "1/5"}


def test_distortion_check_names_both_values(monkeypatch):
    monkeypatch.setattr(ifs, "SINGLE_BRANCH_DISTORTION_MAX", Fraction(3, 1))
    ok, witness = CHECKS["ifs"]["distortion_single_branch_25_9"](RunConfig())
    assert not ok
    assert (witness["max"], witness["expected"]) == ("25/9", "3")
