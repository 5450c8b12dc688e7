"""The CI workflow's hand-kept test selections still select tests.

The numpy-floor job runs parts of the suite under the oldest numpy that
pyproject.toml allows, picked with `pytest -k` terms. A renamed test drops
out of such a selection without any error, so every term must still match a
test function of the file that its step runs. The workflow is read as text,
since the test extras hold no YAML parser.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def job_text(name: str) -> str:
    """One job's lines: from its key to the next key at the same indent."""
    match = re.search(rf"^  {name}:\n(.*?)(?=^  \S|\Z)", WORKFLOW.read_text(), re.M | re.S)
    assert match, f"{WORKFLOW.name} has no job {name!r}"
    return match.group(1)


def test_every_numpy_floor_k_term_names_a_test_of_its_file():
    selections = re.findall(r"(tests/\S+\.py) -k (?:\"([^\"]*)\"|(\S+))", job_text("numpy-floor"))
    assert selections
    for path, quoted, bare in selections:
        names = re.findall(r"^\s*def (test_\w+)", (ROOT / path).read_text(), re.M)
        for term in re.split(r"\s+or\s+", quoted or bare):
            assert any(term in name for name in names), f"{path} -k {term!r} selects no test"
