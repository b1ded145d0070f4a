"""Declaration guard: the estimator kinds are named in ``estimators.py`` only.

``EstimatorKind.PARAMS`` is the one table of the kinds and the parameters each
one takes; the config's estimator list, the CLI's choices, the row fields and
the point expansion read it.  A module that spells a kind's name as a string
literal holds a second copy of that decision, which can drift from the table,
so this guard parses every other module of ``src/overadapt`` and refuses one.
"""

import ast
import pathlib

import overadapt
from overadapt.estimators import EstimatorKind

SOURCES = pathlib.Path(overadapt.__file__).parent


def test_the_kinds_table():
    assert EstimatorKind.PARAMS == {"pretrained": (), "ridgeless_ft": (),
                                    "ridge_ft": ("lam",), "ensemble": ("lam", "tau")}


def test_no_module_but_estimators_spells_a_kind_name():
    found = []
    for path in sorted(SOURCES.glob("*.py")):
        if path.name == "estimators.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Constant) and node.value in EstimatorKind.PARAMS:
                found.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert not found, "estimator-kind names outside estimators.py:\n" + "\n".join(found)
