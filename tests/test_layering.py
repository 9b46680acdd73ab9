"""Import direction between the engine's layers.

``repro.compile`` turns MAL programs into kernels; the SQL layer and
the engines built on it (parallel, sharding, views, sessions) plan the
programs and hand them down, together with their shapes and the kernel
store.  The statement cache imports ``repro.compile.shapes``, so an
import the other way would make a cycle.  ``repro.governance`` (the
query context and the statement options) sits below every front door
that threads it, replication included.  The check reads each module's
source, so a lazy import inside a function counts too.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent

UPPER_LAYERS = ("repro.sql", "repro.parallel", "repro.sharding",
                "repro.views", "repro.sessions")


def _imports(path, root=SRC.parent):
    """Every module name ``path`` (a module under ``root``) imports,
    absolute or relative."""
    package = ".".join(path.relative_to(root).parts[:-1])
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package.split(".")[:len(package.split(".")) -
                                          node.level + 1]
                yield ".".join(base + ([node.module] if node.module
                                       else []))
            else:
                yield node.module


def _within(name, layer):
    return name == layer or name.startswith(layer + ".")


def test_compile_imports_no_upper_layer():
    modules = sorted((SRC / "compile").rglob("*.py"))
    assert modules, "no modules found under repro/compile"
    offending = [(path.name, name) for path in modules
                 for name in _imports(path)
                 if any(_within(name, layer) for layer in UPPER_LAYERS)]
    assert offending == []


def test_governance_imports_no_front_door():
    front_doors = UPPER_LAYERS + ("repro.replication",)
    modules = sorted((SRC / "governance").rglob("*.py"))
    assert modules, "no modules found under repro/governance"
    offending = [(path.name, name) for path in modules
                 for name in _imports(path)
                 if any(_within(name, layer) for layer in front_doors)]
    assert offending == []


def test_the_check_sees_lazy_and_relative_imports(tmp_path):
    package = tmp_path / "repro" / "compile"
    package.mkdir(parents=True)
    module = package / "mod.py"
    module.write_text("def f():\n"
                      "    from repro.sql import parser\n"
                      "    from ..sharding import planner\n"
                      "    import repro.views.rows\n")
    assert set(_imports(module, root=tmp_path)) == {
        "repro.sql", "repro.sharding", "repro.views.rows"}
