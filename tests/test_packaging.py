"""``setup.py`` declares what ``import repro`` needs.

CI installs the package with ``pip install -e .``, so ``install_requires``
is the one list of runtime dependencies: a third-party import added under
``src/repro`` without a matching entry there breaks every CI job.
"""

import ast
import sys
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]

#: Needed at run time but never imported by name under ``src/repro``:
#: ``networkx.laplacian_matrix`` (the SPECTRAL partitioner) imports scipy.
INDIRECT_REQUIREMENTS = {"scipy"}


def _setup_keywords() -> dict:
    tree = ast.parse((ROOT / "setup.py").read_text(encoding="utf-8"))
    call = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "setup"
    )
    return {
        keyword.arg: ast.literal_eval(keyword.value)
        for keyword in call.keywords
        if keyword.arg in ("name", "version", "python_requires", "install_requires")
    }


def _third_party_imports() -> set[str]:
    names: set[str] = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"repro"}


def test_every_third_party_import_is_an_install_requirement():
    required = set(_setup_keywords()["install_requires"])
    assert _third_party_imports() <= required
    assert INDIRECT_REQUIREMENTS <= required


def test_metadata_matches_the_package():
    keywords = _setup_keywords()
    assert keywords["name"] == "repro"
    assert keywords["version"] == repro.__version__
    assert keywords["python_requires"] == ">=3.11"
