"""The tooling's hand-kept name lists still name what they mean.

The numpy-floor job runs parts of the suite under the oldest numpy that
pyproject.toml allows, picked with `pytest -k` terms. A renamed test drops
out of such a selection without any error, so every term must still match a
test function of the file that its step runs. The workflow is read as text,
since the test extras hold no YAML parser.

scripts/bench_pairs.py times the engine's stages by replacing each name of
its STAGES list, so a renamed stage would fail only a benchmark run.
"""

import importlib
import importlib.util
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


def test_every_bench_pairs_stage_resolves(monkeypatch):
    scripts = ROOT / "scripts"
    monkeypatch.syspath_prepend(str(scripts))
    spec = importlib.util.spec_from_file_location("bench_pairs", scripts / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    assert bench_pairs.STAGES
    for module_name, owner_name, name in bench_pairs.STAGES:
        module = importlib.import_module(module_name)
        owner = getattr(module, owner_name) if owner_name else module
        path = ".".join(filter(None, (module_name, owner_name, name)))
        assert callable(vars(owner).get(name)), f"bench_pairs stage {path} is gone"
