"""No module imports a name it never reads, the package defines no
private module-level name that it never reads, and no package module but
the ``reference`` oracles imports scipy.

No linter is a dependency, so these are small AST scans: of the package,
the tests and the demos for imports, of the package alone for private
names and scipy.  The package ``__init__`` is exempt from the import
scan: its imports are the public re-exports.  One subprocess checks
what importing the sampling modules loads.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(path for folder in ("src/cltlab", "tests", "demos")
               for path in (ROOT / folder).glob("*.py")
               if path.name != "__init__.py")
PACKAGE = sorted((ROOT / "src/cltlab").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds a; "import a.b as c" binds c
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                            ast.Store)}
    return ["%s (line %d)" % (name, line) for name, line in bound.items()
            if name not in read]


def test_scan_catches_unused_names():
    source = ("from dataclasses import dataclass, field\n"
              "import numpy as np\nimport os.path\n"
              "@dataclass\nclass A:\n    x: np.ndarray\n")
    assert unused_imports(source) == ["field (line 1)", "os (line 3)"]


@pytest.mark.parametrize("path", FILES,
                         ids=[str(p.relative_to(ROOT)) for p in FILES])
def test_every_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level ``_private`` definitions no module of the set reads.

    A read is a loaded name, an attribute or a ``from`` import of it;
    the import scan above makes sure every such import is read in turn.
    """
    defined, read = [], set()
    for module, source in sorted(sources.items()):
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(module, name, node.lineno) for name in names
                        if _is_private(name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                             ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return ["%s: %s (line %d)" % item for item in defined
            if item[1] not in read]


def test_scan_catches_unused_private_names():
    sources = {
        "a": ("_LIMIT = 3\n_OLD: int = 4\n__all__ = []\n"
              "def _draw_old(x):\n    return x\n"
              "def _helper():\n    return _LIMIT\n"),
        "b": "from .a import _helper\nclass _Unused:\n    pass\n",
        "c": "import a\n_TAG = a._OLD\nprint(_TAG, _helper())\n",
    }
    assert unused_private_names(sources) == [
        "a: _draw_old (line 4)", "b: _Unused (line 2)"]


def test_every_private_name_is_read():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in PACKAGE}
    assert unused_private_names(sources) == []


def imported_roots(source: str) -> set[str]:
    """Top-level packages a module imports by absolute name."""
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_scan_catches_scipy_imports():
    source = ("import numpy as np\nfrom .laws import x\n"
              "def f():\n    from scipy.special._ufuncs import g\n")
    assert imported_roots(source) == {"numpy", "scipy"}
    assert imported_roots("import scipy.stats as st\n") == {"scipy"}


def test_only_the_reference_oracles_import_scipy():
    # the runtime ports its few special functions; scipy stays the
    # independent oracle of reference.py and the tests
    users = [path.name for path in PACKAGE
             if "scipy" in imported_roots(path.read_text(encoding="utf-8"))]
    assert users == ["reference.py"]


def test_importing_the_sampler_loads_no_pool_or_random():
    # one worker never opens a thread pool, and numpy.random loads with
    # the first stream drawn, not with the modules that draw them
    code = ("import sys\n"
            "import cltlab.cli, cltlab.laws, cltlab.simulate\n"
            "print(sorted(m for m in ('concurrent.futures', 'numpy.random')"
            " if m in sys.modules))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "[]"
