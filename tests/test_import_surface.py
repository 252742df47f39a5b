"""The import surface: ``import repro`` pays only for what a caller uses.

The ``repro``, ``repro.session``, ``repro.core``, ``repro.engine`` and
``repro.queries`` package inits re-export their names lazily (PEP 562,
``repro._lazy``).
These tests pin two things, each in a fresh interpreter so the test
process's own imports do not mask them:

* building a session and deciding one pair never loads the fuzzer, the
  workload generators, the refuters, lint or corpus I/O, and building a
  session loads no query builder, parser or printer;
* every exported name resolves to the object its declared module defines,
  in whatever order the names are first read — in particular a name that
  is also a submodule (``repro.core.probe_tuples``) stays the function.
"""

import ast
import importlib
import importlib.util
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC_PATH = str(Path(__file__).parents[1] / "src")

LAZY_PACKAGES = ("repro", "repro.session", "repro.core", "repro.engine", "repro.queries")

#: Subsystems a decision never needs.
OFF_PATH = ("repro.verify", "repro.workloads", "repro.baselines", "repro.analysis.lint", "repro.io")

#: Query-language modules a session never needs (a decision parses its queries).
OFF_SESSION = ("repro.queries.builder", "repro.queries.parser", "repro.queries.printer")


def _run(script: str) -> str:
    completed = subprocess.run(
        [sys.executable, "-c", f"import sys\nsys.path.insert(0, {SRC_PATH!r})\n{script}"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def _declared_imports(package: str) -> tuple[dict, dict]:
    """The init's ``repro`` imports as ``name -> (module, attribute)`` maps.

    Returns the eager module-level imports and the imports under
    ``if TYPE_CHECKING:`` (what a type checker sees of the lazy names).
    """
    tree = ast.parse(Path(importlib.util.find_spec(package).origin).read_text())
    guarded = [
        node.body
        for node in tree.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING"
    ]
    eager, typed = {}, {}
    for statements, sources in ((tree.body, eager), (sum(guarded, []), typed)):
        for node in statements:
            if isinstance(node, ast.ImportFrom) and node.module.startswith("repro."):
                for alias in node.names:
                    sources[alias.asname or alias.name] = (node.module, alias.name)
    eager.pop("lazy_exports")
    return eager, typed


_DECIDE = """
import repro

session = repro.Session(memoize=False)
loaded = [sorted(name for name in sys.modules if name.startswith({off_path!r} + {off_session!r}))]
session.decide(
    repro.parse_cq("q1(x, y) <- R^2(x, y)"),
    repro.parse_cq("q2(x, y) <- R(x, y), R(x, z)"),
)
loaded.append(sorted(name for name in sys.modules if name.startswith({off_path!r})))
print(json.dumps(loaded))
"""


def test_a_decision_loads_no_off_path_subsystem():
    script = "import json\n" + _DECIDE.format(off_path=OFF_PATH, off_session=OFF_SESSION)
    after_session, after_decide = json.loads(_run(script))
    assert after_session == []
    assert after_decide == []


def test_the_cli_decide_loads_no_off_path_subsystem():
    script = (
        "from repro.cli import main\n"
        "code = main(['decide', 'q1(x,y) <- R^2(x,y)', 'q2(x,y) <- R(x,y), R(x,z)'])\n"
        f"print('LOADED', code, sorted(n for n in sys.modules if n.startswith({OFF_PATH!r})))\n"
    )
    assert _run(script).splitlines()[-1] == "LOADED 0 []"


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_the_lazy_table_matches_the_type_checking_imports(package):
    module = importlib.import_module(package)
    eager, typed = _declared_imports(package)
    table = {}
    for name, source in module._EXPORTS.items():
        defining_module, _, attribute = source.partition(":")
        table[name] = (defining_module, attribute or name)
    assert table == typed
    assert not eager.keys() & typed.keys()
    assert set(module.__all__) <= set(dir(module))


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_no_lazy_name_equals_a_submodule(package):
    module = importlib.import_module(package)
    submodules = {info.name for info in pkgutil.iter_modules(module.__path__)}
    assert not submodules & set(module._EXPORTS)


_RESOLVE = """
import importlib
import random

sources = {sources!r}
order = list(sources)
if {order!r} == "reversed":
    order.reverse()
elif {order!r} == "submodules-first":
    for package in {packages!r}:
        for name in {submodules!r}[package]:
            importlib.import_module(f"{{package}}.{{name}}")
else:
    random.Random({order!r}).shuffle(order)
wrong = []
for key in order:
    package, name = key.split(" ")
    module, attribute = sources[key]
    value = getattr(importlib.import_module(package), name)
    if value is not getattr(importlib.import_module(module), attribute):
        wrong.append(f"{{package}}.{{name}} is {{value!r}}")
print(wrong)
"""


@pytest.mark.parametrize("order", ["reversed", "submodules-first", 0, 1, 2, 3])
def test_every_export_resolves_to_its_defining_object(order):
    sources = {
        f"{package} {name}": source
        for package in LAZY_PACKAGES
        for imports in _declared_imports(package)
        for name, source in sorted(imports.items())
    }
    submodules = {
        package: sorted(
            info.name
            for info in pkgutil.iter_modules(importlib.import_module(package).__path__)
            if info.name != "__main__"
        )
        for package in LAZY_PACKAGES
    }
    script = _RESOLVE.format(
        sources=sources, order=order, packages=LAZY_PACKAGES, submodules=submodules
    )
    assert _run(script).strip() == "[]"
