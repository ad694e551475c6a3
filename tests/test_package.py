"""Package surface: each name imported from its own module, and no unused imports."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p.stem for p in (ROOT / "src" / "qslimit").glob("*.py")
                 if not p.stem.startswith("__"))
# the modules that build the CF map's cubic spline, directly or through another
_SPLINE_USERS = {"cf_solver", "cli", "report"}


def _fresh(code):
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_on_its_own(module):
    # importing one module loads only what it uses: the package root imports none
    loaded = _fresh(f"import qslimit.{module}, sys; print('scipy.interpolate' in sys.modules)")
    assert loaded == f"{module in _SPLINE_USERS}\n"


def test_package_root_holds_only_the_version():
    code = ("import qslimit; print(qslimit.__version__); "
            "print(sorted(n for n in vars(qslimit) if not n.startswith('__')))")
    assert _fresh(code) == "0.1.0\n[]\n"


def _unused_imports(path):
    """Names that `path` imports and never reads.

    `from __future__` lines and import lines marked `# noqa: F401` are exempt;
    a name listed only in `__all__` counts as unused.
    """
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__" or "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "qslimit").glob("*.py"))
                         + sorted((ROOT / "scripts").glob("*.py")),
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert _unused_imports(path) == []
