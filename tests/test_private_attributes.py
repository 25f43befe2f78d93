"""No module in ``src/gradednil`` reads or writes a private attribute of
another object.

``x._name`` appears only with ``x`` being ``self``: a fact computed about a
ring or a graded ring is kept through ``ringcore.kept``, not in a field that
another module fills.  Dunder names (``names.__getitem__``) are not private.
The one exception is ``Monoid._check_element``, which monoid.py calls on the
monoids it is given.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ALLOWED = {("monoid.py", "_check_element")}


def _private_uses(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and not node.attr.endswith("__")
                and not (isinstance(node.value, ast.Name) and node.value.id == "self")
                and (path.name, node.attr) not in ALLOWED):
            yield f"{path.name}:{node.lineno}: {ast.unparse(node)}"


def test_no_module_touches_a_private_attribute_of_another_object():
    found = [use for path in sorted((ROOT / "src" / "gradednil").glob("*.py"))
             for use in _private_uses(path)]
    assert not found, f"private attributes of another object: {found}"
