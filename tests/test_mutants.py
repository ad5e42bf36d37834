"""The table of ``scripts/mutants.py`` still applies to the source.

The mutants themselves are not run here; ``python3 scripts/mutants.py``
runs them.
"""

import importlib.util
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = {"analysis.py", "cli.py", "corpus.py", "evaluate.py", "expansion.py", "index.py",
           "pipeline.py"}


def load_mutants():
    spec = importlib.util.spec_from_file_location(
        "mutants", os.path.join(ROOT, "scripts", "mutants.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_mutant_applies_once():
    mutants = load_mutants()
    assert mutants.table_problems() == []
    # the report names each mutant
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)


def test_table_covers_every_module():
    live = [m for m in load_mutants().MUTANTS if not m.equivalent]
    assert len(live) >= 20
    assert {m.module for m in live} == MODULES

