from __future__ import annotations

import importlib.util
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "mutants.py"


def test_every_mutant_names_code_that_is_there():
    # a refactor that moves a mutant's code must move the mutant with it
    spec = importlib.util.spec_from_file_location("mutants", _SCRIPT)
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert mutants.misplaced() == []
    assert all(m.old != m.new and m.profile in ("quick", "full") for m in mutants.MUTANTS)
