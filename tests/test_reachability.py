"""Every definition in ``src/gradednil`` is reached from the program, and
every parameter is read.

A top-level definition counts as reached when its name appears in ``src/``
or ``perfbench/`` outside its own definition, as a Name, an attribute of a
gradednil module (``ringcore.power_chain``; an attribute of any other value,
such as ``dom.mul``, names a method), an import alias or a string constant
(``perfbench/layers.py`` patches by name).  ``cmd_*`` is exempt: ``cli.main`` dispatches by ``globals()``.
A method counts as reached when its name appears as an attribute outside its
own body; dunder methods are called by the language.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "gradednil").glob("*.py"))
FILES = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))
MODULES = {path.stem for path in SOURCES}

# argparse calls ``ArgumentParser.error``; nothing in the program names it
CALLED_FROM_OUTSIDE = {("cli.py", "_Parser", "error")}

# Parameters a function accepts without reading them, each with its reason.
UNREAD = {
    # perfbench/layers.py binds these by name to count the work of a call
    ("nil.py", "ring_is_nil", "elem_cap"): "bound by perfbench/layers.py",
    ("nil.py", "nil_bounded_index", "elem_cap"): "bound by perfbench/layers.py",
    ("nil.py", "s_nil_check", "elem_cap"): "bound by perfbench/layers.py",
    ("fcomm.py", "check_f_commutative", "samples"): "bound by perfbench/layers.py",
    ("fcomm.py", "check_f_commutative", "pair_cap"): "bound by perfbench/layers.py",
    ("fcomm.py", "scalar_f_search", "samples"): "bound by perfbench/layers.py",
    # argparse's ``help`` is accepted so a table entry reads like add_argument
    ("cli.py", "_modelled", "help"): "accepted on purpose",
    # the verdict is R's at every n; ROADMAP direction 16 will read n
    ("theorems.py", "verify_diagonal_power_reduction", "n"): "the same verdict at every n",
}


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
    uses, defined = {}, []
    for path in FILES:
        for stmt in ast.parse(path.read_text()).body:
            for name in _names(stmt):
                uses.setdefault(name, set()).add(stmt)
            if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and path.parent.name == "gradednil"):
                defined.append((path.name, stmt))
    unreached = [f"{file}:{stmt.name}" for file, stmt in defined
                 if not stmt.name.startswith("cmd_") and not uses.get(stmt.name, set()) - {stmt}]
    assert not unreached, f"reached by no command: {unreached}"


def test_every_method_is_named_as_an_attribute():
    attributes = {}
    for path in FILES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                attributes.setdefault(node.attr, set()).add((path.name, node.lineno))
    unreached = []
    for path in SOURCES:
        for cls in ast.walk(ast.parse(path.read_text())):
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if (not isinstance(fn, ast.FunctionDef)
                        or fn.name.startswith("__") and fn.name.endswith("__")
                        or (path.name, cls.name, fn.name) in CALLED_FROM_OUTSIDE):
                    continue
                own = {(path.name, line) for line in range(fn.lineno, fn.end_lineno + 1)}
                if not attributes.get(fn.name, set()) - own:
                    unreached.append(f"{path.name}:{cls.name}.{fn.name}")
    assert not unreached, f"methods no attribute names: {unreached}"


def test_every_parameter_is_read():
    unread = set()
    for path in SOURCES:
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.Lambda)):
                continue
            args = fn.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a]
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {sub.id for stmt in body for sub in ast.walk(stmt)
                    if isinstance(sub, ast.Name)}
            name = getattr(fn, "name", "<lambda>")
            unread |= {(path.name, name, p) for p in params if p not in read}
    assert not unread - set(UNREAD), f"parameters never read: {sorted(unread - set(UNREAD))}"
    # an entry whose parameter is gone, or now read, leaves UNREAD with it
    assert set(UNREAD) <= unread, f"stale entries: {sorted(set(UNREAD) - unread)}"


def test_the_benchmark_layers_find_every_name_they_patch():
    # ``perfbench/layers.py`` patches functions by name; in a fresh process,
    # installing it raises if ``src/`` has lost or renamed one of them
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "perfbench"), str(ROOT / "src")]))
    out = subprocess.run([sys.executable, "-c", "import layers; layers.install()"],
                         env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
