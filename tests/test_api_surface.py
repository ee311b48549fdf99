"""No public name survives that nothing in the package uses.

Every name in ``hodgeideals.__all__`` must be read somewhere in
``src/hodgeideals/`` outside its own definition and ``__init__.py``.
Imports and assignments do not count as uses.
"""

import ast
from pathlib import Path

import hodgeideals

PACKAGE = Path(hodgeideals.__file__).resolve().parent

ALLOWED_UNUSED = {
    # The smooth/singular dichotomy the README advertises.  Wiring it into
    # a verify suite would add verdicts; until then only tests call it.
    "smoothness_test",
}


class _Uses(ast.NodeVisitor):
    """Names loaded and attributes read, outside the definition of the
    same name."""

    def __init__(self):
        self.used: set[str] = set()
        self.defining: list[str] = []

    def _definition(self, node):
        self.defining.append(node.name)
        self.generic_visit(node)
        self.defining.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def _use(self, name):
        if name not in self.defining:
            self.used.add(name)

    def visit_Name(self, node):
        if isinstance(node.ctx, ast.Load):
            self._use(node.id)

    def visit_Attribute(self, node):
        self._use(node.attr)
        self.generic_visit(node)


def _used_names() -> set[str]:
    uses = _Uses()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            uses.visit(ast.parse(path.read_text(), str(path)))
    return uses.used


def test_every_exported_name_is_used_in_the_package():
    used = _used_names()
    unused = sorted(set(hodgeideals.__all__) - used - ALLOWED_UNUSED)
    assert unused == []


def test_allowlist_holds_only_unused_exports():
    used = _used_names()
    assert ALLOWED_UNUSED <= set(hodgeideals.__all__)
    assert not ALLOWED_UNUSED & used
