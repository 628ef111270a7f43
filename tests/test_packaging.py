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


def _workflow_jobs() -> dict:
    yaml = pytest.importorskip("yaml")
    return yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())["jobs"]


def _workflow_job(name: str) -> dict:
    return _workflow_jobs()[name]


def test_every_workflow_job_has_a_time_limit():
    # without one, a solver that stops converging holds a runner for 6 hours
    limits = {name: job.get("timeout-minutes") for name, job in _workflow_jobs().items()}
    assert limits == {"tests": 15, "bench-selftest": 20, "cli-reruns": 15}


def test_tier1_workflow_runs_the_roadmap_command():
    job = _workflow_job("tests")
    assert job["strategy"]["matrix"]["python-version"] == ["3.10", "3.11"]
    assert job["env"]["OPENBLAS_NUM_THREADS"] == "1"
    runs = [step["run"] for step in job["steps"] if "run" in step]
    assert runs[0] == 'python -m pip install -e ".[test]"'
    assert runs[-1] == ("PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} "
                        "python -m pytest -q --continue-on-collection-errors")


def test_cli_reruns_job_diffs_two_passes_over_the_run_table():
    # the runs and their configs live in tests/cli_runs.py alone, not in the job
    lines = [line.strip() for step in _workflow_job("cli-reruns")["steps"] if "run" in step
             for line in step["run"].splitlines()]
    assert lines[0] == "python -m pip install -e ."
    table = "python tests/cli_runs.py "
    outs = [line[len(table):] for line in lines if line.startswith(table)]
    assert len(set(outs)) == 2
    assert lines.index(f"diff -r {outs[0]} {outs[1]}") > lines.index(table + outs[1])
    assert not [line for line in lines if "echo" in line or "<<" in line]
