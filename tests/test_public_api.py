"""Every public name has a use in the package beyond its own definition.

``wedgeshift.__all__`` should hold no name that only tests call.  The source
of each module but ``__init__.py`` is parsed, and a name counts as used when
it is read as a name or an attribute outside its own ``def`` or ``class``;
docstrings and imports do not count.
"""

import ast
from pathlib import Path

import pytest

import wedgeshift

SOURCES = sorted(p for p in Path(wedgeshift.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _uses(tree):
    """Every name read as a Name or an Attribute, with the names of the
    functions and classes it is read inside."""
    out = []

    def walk(node, scopes):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scopes = scopes | {node.name}
        elif isinstance(node, ast.Name):
            out.append((node.id, scopes))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, scopes))
        for child in ast.iter_child_nodes(node):
            walk(child, scopes)

    walk(tree, frozenset())
    return out


USES = [use for path in SOURCES for use in _uses(ast.parse(path.read_text()))]


@pytest.mark.parametrize("name", wedgeshift.__all__)
def test_public_name_is_used_in_the_package(name):
    assert any(used == name and name not in scopes for used, scopes in USES), (
        f"{name} is referenced nowhere in the package outside its own definition"
    )
