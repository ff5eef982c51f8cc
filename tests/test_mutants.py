"""The mutants of `mutants.py` still apply: a refactor that moves the code
they edit must move them too."""

from mutants import MUTANTS, ROOT


def test_each_mutant_edits_text_found_once_and_names_tests_that_exist():
    for mutant in MUTANTS:
        assert (ROOT / "src" / mutant.module).read_text().count(mutant.old) == 1, mutant
        assert mutant.new != mutant.old
        for test in mutant.tests:
            path, name = test.split("::")
            assert f"\ndef {name}(" in (ROOT / path).read_text(), test
