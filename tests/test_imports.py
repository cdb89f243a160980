"""No module imports a name it never reads, the package defines no
private module-level name that it never reads, nor any module-level name
that nothing in the checkout reads, no package module imports scipy,
which is only a test extra, no package function takes both the
parameters and an ``ExactMoments``, which already holds them, and only
the runner spells out the artifact tables' cell rule and header.

No linter is a dependency, so these are small AST scans: of the package,
the tests and the demos for imports, of the package alone for private
names, scipy and the engine's arguments, and of the package, tests,
demos and bench for the reads of every definition.  A text scan of the
package finds the artifact format.  The package ``__init__`` is exempt
from the import scan: its imports are the public re-exports.
Subprocesses check that every package module imports without scipy, and
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


def _not_dunder(name: str) -> bool:
    """Every name but a dunder, which the interpreter reads."""
    return not (name.startswith("__") and name.endswith("__"))


def definitions(source: str) -> list[tuple[str, int]]:
    """(name, line) of each module-level function, class and assigned
    name; methods and nested definitions are out of scope."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            out += [(n.id, node.lineno) for t in targets
                    for n in ast.walk(t) if isinstance(n, ast.Name)]
    return out


def reads(source: str) -> set[str]:
    """Names a module reads: loaded names, attributes, names it imports
    from a module, and the strings of a module-level ``_LAZY`` table,
    the package root's lazy re-exports."""
    tree = ast.parse(source)
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                         ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "_LAZY"):
            out.update(n.value for n in ast.walk(node.value)
                       if isinstance(n, ast.Constant)
                       and isinstance(n.value, str))
    return out


def unread_definitions(defining: dict[str, str], reading, keep) -> list[str]:
    """Module-level definitions of the ``defining`` sources, by module,
    whose name passes ``keep`` and which none of the ``reading``
    sources reads."""
    read = set().union(*map(reads, reading))
    return ["%s: %s (line %d)" % (module, name, line)
            for module, source in sorted(defining.items())
            for name, line in definitions(source)
            if keep(name) and name not in read]


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level ``_private`` definitions no module of the set reads.

    A read is a loaded name, an attribute or a ``from`` import of it;
    the import scan above makes sure every such import is read in turn.
    """
    return unread_definitions(sources, sources.values(), _is_private)


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


def test_scan_catches_unread_definitions():
    defining = {
        "a": ("_LAZY = dict.fromkeys(('lazy',), 'a')\n__version__ = '1'\n"
              "def lazy():\n    return _LAZY\n"
              "def called():\n    pass\n"
              "class Dead:\n    def method(self):\n        pass\n"),
        "b": "SIZE: int = 4\nLIMIT = 5\n",
    }
    reading = [*defining.values(), "from a import called\nimport b\n"
               "print(b.SIZE)\n"]
    assert unread_definitions(defining, reading, _not_dunder) == [
        "a: Dead (line 7)", "b: LIMIT (line 2)"]


def test_every_definition_is_read():
    # any reader counts: the package, the tests, the demos or the bench
    reading = [path.read_text(encoding="utf-8")
               for folder in ("src", "tests", "demos", "bench")
               for path in sorted((ROOT / folder).rglob("*.py"))]
    defining = {path.stem: path.read_text(encoding="utf-8")
                for path in PACKAGE}
    assert unread_definitions(defining, reading, _not_dunder) == []


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


def test_no_package_module_imports_scipy():
    # the runtime ports its few special functions; scipy stays the
    # independent oracle of the tests and their cltlab_reference
    users = [path.name for path in PACKAGE
             if "scipy" in imported_roots(path.read_text(encoding="utf-8"))]
    assert users == []


def params_beside_moments(source: str) -> list[str]:
    """Each function or lambda, as "name (line n)", that takes both a
    ``params`` and a ``moments`` argument."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            a = node.args
            names = {x.arg for x in a.posonlyargs + a.args + a.kwonlyargs}
            if {"params", "moments"} <= names:
                out.append("%s (line %d)" % (getattr(node, "name", "lambda"),
                                             node.lineno))
    return out


def test_scan_catches_params_beside_moments():
    source = ("def plan(params, e, moments=None):\n    pass\n"
              "def law(moments, e):\n    pass\n"
              "class A:\n    def draw(self, params, *, moments):\n"
              "        return lambda params, moments: 0\n")
    assert params_beside_moments(source) == [
        "plan (line 1)", "draw (line 6)", "lambda (line 7)"]


def test_no_package_function_takes_params_beside_moments():
    # the sampler, the flat copy, its law and the report read the
    # parameters off their one engine, so no pair can disagree
    found = {path.name: params_beside_moments(path.read_text(
                 encoding="utf-8")) for path in PACKAGE}
    assert {name: defs for name, defs in found.items() if defs} == {}



# the cell rule of every artifact table and its config header line
_FORMAT_TOKENS = (".17g", "# config:")


def format_tokens(source: str) -> list[str]:
    """The artifact-format tokens a source spells out."""
    return [token for token in _FORMAT_TOKENS if token in source]


def test_scan_catches_format_tokens():
    source = ('def f(v):\n    return "%d,%.17g" % (1, v)\n'
              'HEADER = "# config: " + "{}"\n')
    assert format_tokens(source) == [".17g", "# config:"]
    assert format_tokens('line = f"{v:.17g}"\n') == [".17g"]
    assert format_tokens('note = "%.3g" % bound\n# configured\n') == []


def test_the_artifact_format_lives_in_the_runner_alone():
    # one writer in cli formats every CSV table; the library returns rows
    found = {path.name: format_tokens(path.read_text(encoding="utf-8"))
             for path in PACKAGE}
    assert {name: tokens for name, tokens in found.items() if tokens} == {
        "cli.py": [".17g", "# config:"]}


def _run_package(code: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter that finds the
    package source first."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    return out.stdout.strip()


def test_every_package_module_imports_without_scipy():
    # a numpy-only install: a None entry makes every scipy import fail
    names = ["cltlab"] + ["cltlab." + path.stem for path in PACKAGE
                          if path.name != "__init__.py"]
    code = ("import importlib, sys\n"
            "sys.modules['scipy'] = None\n"
            "for name in %r:\n"
            "    try:\n"
            "        importlib.import_module(name)\n"
            "    except ImportError as exc:\n"
            "        print(name + ': ' + str(exc))\n" % names)
    assert _run_package(code) == ""


def test_importing_the_sampler_loads_no_pool_or_random():
    # the sampler runs on one thread, so no pool module loads, and
    # numpy.random loads with the first stream drawn, not with the
    # modules that draw them
    code = ("import sys\n"
            "import cltlab.cli, cltlab.laws, cltlab.simulate\n"
            "print(sorted(m for m in ('concurrent.futures', 'numpy.random')"
            " if m in sys.modules))\n")
    assert _run_package(code) == "[]"
