"""The mutation catalogue in tests/mutants.py, checked without running it:
the catalogue is sound, and every mutant's old text still occurs exactly
once in its file, so a change to src/ that moves an anchor fails here and
not only in the full mutation run.  Nothing is copied or run."""

import pytest

from mutants import MUTANTS, ROOT, catalogue_faults


def test_the_catalogue_is_sound():
    assert catalogue_faults(MUTANTS) == []


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_each_mutant_anchor_occurs_once(mutant):
    text = (ROOT / "src" / "macmahon" / mutant.path).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
