"""Every top-level definition in ``src/gradednil`` is reached from the program.

A definition counts as reached when its name appears in ``src/`` or
``perfbench/`` outside its own definition, as a Name, an attribute of a
gradednil module (``ringcore.power_chain``; an attribute of any other value,
such as ``dom.mul``, names a method), an import alias or a string constant
(``perfbench/layers.py`` patches by name).  ``cmd_*`` is exempt: ``cli.main`` dispatches by ``globals()``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = {path.stem for path in (ROOT / "src" / "gradednil").glob("*.py")}


def _names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                and sub.value.id in MODULES):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name.rpartition(".")[2]
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield sub.value


def test_every_top_level_definition_is_reached():
    files = sorted((ROOT / "src" / "gradednil").glob("*.py"))
    files += sorted((ROOT / "perfbench").glob("*.py"))
    uses, defined = {}, []
    for path in files:
        for stmt in ast.parse(path.read_text()).body:
            for name in _names(stmt):
                uses.setdefault(name, set()).add(stmt)
            if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and path.parent.name == "gradednil"):
                defined.append((path.name, stmt))
    unreached = [f"{file}:{stmt.name}" for file, stmt in defined
                 if not stmt.name.startswith("cmd_") and not uses.get(stmt.name, set()) - {stmt}]
    assert not unreached, f"reached by no command: {unreached}"
