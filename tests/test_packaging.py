import ast
import importlib
import re
from pathlib import Path

import pytest

import cli_runs
import qfcsim
from helpers import fresh_python

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qfcsim"
# the 62 public names of qfcsim, by the submodule that defines them
PUBLIC = {
    "bell": "chsh_polynomial chsh_sweep rotation_r",
    "channel": "ChannelSpec ModeTransfer apply_channel choi_concurrence_closed choi_state "
               "converted_marginal_is_mixed drive_singular_values duality_distance "
               "konrad_check kraus_from_drive mode_transfer one_sided_apply",
    "drive": "coherence_matrix drive_concurrence drive_from_theta qwp_jones vwp_transform",
    "linalg": "partial_trace svd",
    "spectral": "LITHIUM_NIOBATE CrystalSpec DispersionModel GridSpec JSAGrid PumpSpec "
                "SchmidtDecomposition SpectralDensity coincidence_delay_width compute_jsa "
                "estimate_efficiency heralded_purity hg_mode_probabilities jsa_from_binary "
                "jsa_to_binary jsa_to_csv phase_mismatch pump_overlap reduced_density "
                "refractive_index schmidt spectral_purity temporal_intensity",
    "states": "assert_density_matrix bell_state chsh_max concurrence fidelity "
              "pauli_correlations purity werner_state",
    "tomography": "CountRecord MeasurementSetting MetricWithError mle_reconstruct "
                  "monte_carlo_metric projector_set records_from_csv records_to_csv "
                  "simulate_counts",
}
DEFINED_IN = {name: module for module, names in PUBLIC.items() for name in names.split()}


class TestPublicNamespace:
    def test_all_lists_the_public_names(self):
        assert len(DEFINED_IN) == 62
        assert sorted(qfcsim.__all__) == sorted(DEFINED_IN)

    def test_each_name_is_the_object_its_module_defines(self):
        for name, module in DEFINED_IN.items():
            assert getattr(qfcsim, name) is getattr(
                importlib.import_module(f"qfcsim.{module}"), name), name

    def test_dir_lists_every_name(self):
        assert set(DEFINED_IN) <= set(dir(qfcsim))

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from qfcsim import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(DEFINED_IN)

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="'nope'"):
            qfcsim.nope
        assert not hasattr(qfcsim, "nope")

    def test_bare_import_reaches_the_submodules_on_first_use(self):
        code = ("import qfcsim; print(qfcsim.tomography.__name__, qfcsim.errors.__name__, "
                "qfcsim.werner_state.__module__)")
        assert fresh_python(code) == "qfcsim.tomography qfcsim.errors qfcsim.states"


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


# the number tests that linalg's _integer and _finite_real stand for
NUMBER_TESTS = {("numbers", "Integral"), ("numbers", "Real"), ("operator", "index")}


def test_only_linalg_and_schema_test_numbers_by_their_abc():
    # linalg holds the integer and real rules once; schema's JSON "integer"
    # counts 7.0 as an integer, so it keeps its own
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in ("linalg.py", "schema.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [(node.value.id, node.attr)]
            elif isinstance(node, ast.ImportFrom):
                names = [(node.module, alias.name) for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names if name in NUMBER_TESTS]
    assert not found


def test_numpy_is_the_only_runtime_dependency():
    # every other import of the package would be paid by each command
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text())
    names = [re.match(r"[A-Za-z0-9_.-]+", req).group() for req in
             pyproject["project"]["dependencies"]]
    assert names == ["numpy"]


def test_console_script_enters_through_run():
    # run() is the process entry; main(argv) stays the in-process API
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert pyproject["project"]["scripts"] == {"qfcsim": "qfcsim.cli:run"}


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
    # the console script's drive run writes what the table's drive run wrote
    console = 'qfcsim --out "$RUNNER_TEMP/console" drive --theta 22.5'
    assert cli_runs.RUNS["drive"] == ["drive", "--theta", "22.5"]
    assert lines.index('diff -r "$RUNNER_TEMP/a/drive" "$RUNNER_TEMP/console"') > \
        lines.index(console) > lines.index(table + outs[0])
    assert not [line for line in lines if "echo" in line or "<<" in line]


def test_cli_reruns_job_runs_a_console_run_that_cannot_write():
    # exit 2, nothing on stdout, and --out holds only the directory that blocked it
    steps = [step["run"].splitlines() for step in _workflow_job("cli-reruns")["steps"]
             if "blocked" in step.get("run", "")]
    assert steps == [[
        'mkdir -p "$RUNNER_TEMP/blocked/drive_summary.json"',
        "code=0",
        'qfcsim --out "$RUNNER_TEMP/blocked" drive --theta 22.5 > "$RUNNER_TEMP/blocked.out"'
        " || code=$?",
        'test "$code" = 2',
        'test ! -s "$RUNNER_TEMP/blocked.out"',
        'test "$(find "$RUNNER_TEMP/blocked" -mindepth 1)" = '
        '"$RUNNER_TEMP/blocked/drive_summary.json"',
    ]]
