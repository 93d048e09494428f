"""The CI workflow against the two modules whose entries it runs.

``tests/gates.py`` and ``tests/report.py`` pick what to run by name.  A
step naming no entry fails only in CI, and a gate that no step names
drops out of CI without a failure; these tests catch both locally.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def entries(module: str, table: str) -> set[str]:
    """The keys of the dict ``table`` that ``tests/<module>.py`` assigns
    at module level, read without importing the module."""
    tree = ast.parse((ROOT / "tests" / f"{module}.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
                and [getattr(t, "id", None) for t in node.targets] == [table]):
            return {ast.literal_eval(key) for key in node.value.keys}
    raise AssertionError(f"tests/{module}.py assigns no {table}")


def run_names(module: str) -> list[str]:
    """The first argument of every ``tests/<module>.py`` command the
    workflow runs."""
    return re.findall(rf"python3?\s+tests/{module}\.py\s+([\w-]+)",
                      WORKFLOW.read_text())


@pytest.mark.parametrize("module, table",
                         [("gates", "GATES"), ("report", "SECTIONS")])
def test_every_workflow_command_names_an_entry(module, table):
    names = run_names(module)
    assert names, f"the workflow runs no tests/{module}.py command"
    assert set(names) <= entries(module, table)


def test_every_gate_runs_in_the_workflow():
    assert entries("gates", "GATES") == {"census", "confluence", "past-cap"}
    assert entries("gates", "GATES") <= set(run_names("gates"))
