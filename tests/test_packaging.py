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


def test_numpy_is_the_only_runtime_dependency():
    # every other import of the package would be paid by each command
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text())
    names = [re.match(r"[A-Za-z0-9_.-]+", req).group() for req in
             pyproject["project"]["dependencies"]]
    assert names == ["numpy"]
