import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qfcsim"


def test_package_data_globs_match_the_data_files():
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text())
    globs = pyproject["tool"]["setuptools"]["package-data"]["qfcsim"]
    # setuptools reads package-data globs relative to the package directory
    matched = {g: {p for p in PACKAGE.glob(g) if p.is_file()} for g in globs}
    for g, files in matched.items():
        assert files, f"package-data glob {g!r} matches no file"
    data_files = {p for p in (PACKAGE / "data").rglob("*") if p.is_file()}
    installed = set().union(*matched.values())
    assert data_files <= installed, sorted(str(p) for p in data_files - installed)


def test_no_function_rebinds_module_state():
    # state a function keeps in a module global hides between calls; a cache
    # belongs in functools.lru_cache, which callers can inspect and clear
    found = [f"{path.name}:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Global)]
    assert not found


def test_numpy_is_the_only_runtime_dependency():
    # every other import of the package would be paid by each command
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text())
    names = [re.match(r"[A-Za-z0-9_.-]+", req).group() for req in
             pyproject["project"]["dependencies"]]
    assert names == ["numpy"]


def test_tier1_workflow_runs_the_roadmap_command():
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    job = workflow["jobs"]["tests"]
    assert job["strategy"]["matrix"]["python-version"] == ["3.10", "3.11"]
    assert job["env"]["OPENBLAS_NUM_THREADS"] == "1"
    runs = [step["run"] for step in job["steps"] if "run" in step]
    assert runs[0] == 'python -m pip install -e ".[test]"'
    assert runs[-1] == ("PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} "
                        "python -m pytest -q --continue-on-collection-errors")
