"""The demos, the layer benches and the whole-run benchmark import the
package but sit outside this suite.  Every name they import from
rindlersim must still resolve, or they break without a failing test."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CALLERS = ("demos", "benchmarks", "perfbench")


def _imports():
    """(file, module, name) for each rindlersim import in the callers;
    name is None for a plain `import rindlersim.x`."""
    cases = []
    for folder in CALLERS:
        for path in sorted((ROOT / folder).rglob("*.py")):
            where = path.relative_to(ROOT).as_posix()
            for node in ast.walk(ast.parse(path.read_text(), filename=where)):
                if isinstance(node, ast.ImportFrom) and node.level == 0:
                    if node.module.split(".")[0] == "rindlersim":
                        cases += [(where, node.module, alias.name) for alias in node.names]
                elif isinstance(node, ast.Import):
                    cases += [
                        (where, alias.name, None)
                        for alias in node.names
                        if alias.name.split(".")[0] == "rindlersim"
                    ]
    # a name imported twice in one file is one case
    return list(dict.fromkeys(cases))


@pytest.mark.parametrize(
    "where, module, name",
    [
        pytest.param(where, module, name, id=f"{where}:{module}" + (f":{name}" if name else ""))
        for where, module, name in _imports()
    ],
)
def test_caller_import_resolves(where, module, name):
    owner = importlib.import_module(module)
    if name is not None and not hasattr(owner, name):
        # `from package import submodule` resolves by importing it
        importlib.import_module(f"{module}.{name}")
