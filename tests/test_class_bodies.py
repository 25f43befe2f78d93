"""No class body in ``src/gradednil`` annotates the same name twice.

A second annotation replaces the first in ``__annotations__``, so a
dataclass keeps one field and the repeat only misleads the reader.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _repeats(path):
    for cls in ast.walk(ast.parse(path.read_text())):
        if isinstance(cls, ast.ClassDef):
            names = Counter(stmt.target.id for stmt in cls.body
                            if isinstance(stmt, ast.AnnAssign)
                            and isinstance(stmt.target, ast.Name))
            yield from (f"{path.name}:{cls.name}.{name}" for name, n in names.items() if n > 1)


def test_no_class_body_annotates_a_name_twice():
    found = [rep for path in sorted((ROOT / "src" / "gradednil").glob("*.py"))
             for rep in _repeats(path)]
    assert not found, f"names annotated twice in one class body: {found}"
