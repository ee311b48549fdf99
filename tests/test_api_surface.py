"""No public name survives that nothing in the package uses.

Every name in ``hodgeideals.__all__``, and every public method and
property of the core classes (``CLASSES``), must be read somewhere in
``src/hodgeideals/`` outside its own definition and ``__init__.py``.
Imports and assignments do not count as uses.

The check matches names only: any read of an attribute or a variable of
the same name counts as a use.  A method that shares its name with
something else the package reads therefore goes unseen: nothing calls
``Polynomial.monomial``, but ``regime.monomial`` (a ``Regime`` field) is
read, so it passes.
"""

import ast
import functools
import types
from pathlib import Path

import hodgeideals
from hodgeideals import GroebnerBasis, Ideal, MonomialOrder, Polynomial, QDivisor

PACKAGE = Path(hodgeideals.__file__).resolve().parent

ALLOWED_UNUSED = {
    # The smooth/singular dichotomy the README advertises.  Wiring it into
    # a verify suite would add verdicts; until then only tests call it.
    "smoothness_test",
}


CLASSES = (Polynomial, Ideal, GroebnerBasis, QDivisor, MonomialOrder)

# "Class.member" entries that nothing in the package reads, each with the
# reason it stays public.  Empty: every member is read.
ALLOWED_UNUSED_MEMBERS: set[str] = set()

_MEMBER_KINDS = (types.FunctionType, classmethod, staticmethod, property,
                 functools.cached_property)


def _public_members() -> dict[str, str]:
    """{"Class.member": member} for the public methods and properties
    the core classes define themselves (fields and slots excluded)."""
    return {f"{cls.__name__}.{name}": name for cls in CLASSES
            for name, obj in vars(cls).items()
            if not name.startswith("_") and isinstance(obj, _MEMBER_KINDS)}


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


def test_every_public_member_of_the_core_classes_is_used_in_the_package():
    used = _used_names()
    members = _public_members()
    assert len(members) > 40  # the scan found the methods
    unused = sorted(key for key, name in members.items()
                    if name not in used and key not in ALLOWED_UNUSED_MEMBERS)
    assert unused == []


def test_member_allowlist_holds_only_unused_members():
    used = _used_names()
    members = _public_members()
    assert ALLOWED_UNUSED_MEMBERS <= set(members)
    assert not {members[key] for key in ALLOWED_UNUSED_MEMBERS} & used
