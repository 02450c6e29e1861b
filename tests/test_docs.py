"""The README's method lists stay in step with the method tables."""

import re
from pathlib import Path

import pytest

from cleanbench.detect import DETECTORS
from cleanbench.models import MODELS
from cleanbench.repair import REPAIRS

README = Path(__file__).resolve().parent.parent / "README.md"


def concept_names(term: str) -> set[str]:
    """The backticked names in the README "Concepts" bullet for `term`, each
    cut before any `(`."""
    concepts = README.read_text(encoding="utf-8").split("## Concepts", 1)[1].split("\n## ", 1)[0]
    bullet = re.search(rf"^- \*\*{term}\*\*(.*?)(?=^- |\Z)", concepts, re.M | re.S).group(1)
    return {name.split("(", 1)[0] for name in re.findall(r"`([^`]+)`", bullet)}


@pytest.mark.parametrize("term, table", [("Detectors", DETECTORS), ("Repairs", REPAIRS), ("Models", MODELS)])
def test_concepts_list_every_method(term, table):
    assert concept_names(term) == set(table)
