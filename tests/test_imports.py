"""What the package imports: the standard library, the dependencies that
``pyproject.toml`` declares, and no network stack."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_PACKAGE = _ROOT / "src" / "simpkit"
_NETWORK = ("urllib.request", "http.client", "ssl", "socket")


def _declared_dependencies():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(_ROOT / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    names = set()
    for requirement in project.get("dependencies", []):
        name = re.match(r"[A-Za-z0-9._-]+", requirement).group(0)
        names.add(name.lower().replace("-", "_"))
    return names


def _imported_top_level_modules():
    """Absolute imports anywhere in the package, function bodies included."""
    names = set()
    for path in sorted(_PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_package_imports_only_the_stdlib_and_declared_dependencies():
    imported = _imported_top_level_modules()
    declared = _declared_dependencies()
    assert imported - set(sys.stdlib_module_names) - declared == set()
    assert declared <= imported, "a declared dependency is never imported"


def test_importing_the_package_and_cli_loads_no_network_module():
    probe = (
        "import sys, simpkit, simpkit.cli\n"
        f"print(sorted(m for m in {_NETWORK!r} if m in sys.modules))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(_ROOT / "src"), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "[]"
