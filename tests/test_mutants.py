"""The mutant catalogue still applies to the code: each old text occurs
exactly once in its file, and each test that must kill it is still defined,
so a refactor that moves either has to update `tests/mutants.py`. Running
the mutants is `python tests/mutants.py`, outside this suite."""

import re

import pytest
from mutants import MUTANTS, ROOT


def test_ids_are_unique():
    ids = [m.id for m in MUTANTS]
    assert len(ids) == len(set(ids))


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.id for m in MUTANTS])
def test_mutant_applies_and_names_its_tests(mutant):
    assert (ROOT / mutant.file).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old and mutant.tests
    for node in mutant.tests:
        path, *names = node.split("::")
        function = re.sub(r"\[.*\]$", "", names[-1])
        assert f"def {function}(" in (ROOT / path).read_text(), node
