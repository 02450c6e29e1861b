"""The README's method lists stay in step with the method tables."""

import inspect
import re
from pathlib import Path

import pytest

from cleanbench.detect import DETECTORS
from cleanbench.inject import INJECTORS
from cleanbench.models import MODELS
from cleanbench.repair import REPAIRS

README = Path(__file__).resolve().parent.parent / "README.md"


def concept_entries(term: str) -> list[str]:
    """The backticked texts in the README "Concepts" bullet for `term`."""
    concepts = README.read_text(encoding="utf-8").split("## Concepts", 1)[1].split("\n## ", 1)[0]
    bullet = re.search(rf"^- \*\*{term}\*\*(.*?)(?=^- |\Z)", concepts, re.M | re.S).group(1)
    return re.findall(r"`([^`]+)`", bullet)


def concept_names(term: str) -> set[str]:
    """The backticked names in the README "Concepts" bullet for `term`, each
    cut before any `(`."""
    return {name.split("(", 1)[0] for name in concept_entries(term)}


@pytest.mark.parametrize(
    "term, table",
    [("Detectors", DETECTORS), ("Repairs", REPAIRS), ("Models", MODELS), ("Error profile", INJECTORS)],
)
def test_concepts_list_every_method(term, table):
    assert concept_names(term) == set(table)


def test_error_profile_lists_each_injectors_params():
    for entry in concept_entries("Error profile"):
        kind, _, params = entry.partition("(")
        signature = inspect.signature(INJECTORS[kind].run).parameters.values()
        assert params.rstrip(")") == ", ".join(str(p) for p in signature if p.kind is p.KEYWORD_ONLY)
