"""No public name survives that nothing in the package uses.

Every name in ``hodgeideals.__all__``, and every public method and
property of the core classes (``CLASSES``), must be read somewhere in
``src/hodgeideals/`` outside its own definition and ``__init__.py``.
Imports and assignments do not count as uses.

A classmethod or staticmethod counts as used only when it is read as
``<ClassName>.<name>`` or ``cls.<name>``; any other member counts as
used when an attribute or a variable of the same name is read.  No
module of the package imports a name it never reads.
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


def _public_members() -> dict[str, object]:
    """{"Class.member": member object} for the public methods and
    properties the core classes define themselves (fields and slots
    excluded)."""
    return {f"{cls.__name__}.{name}": obj for cls in CLASSES
            for name, obj in vars(cls).items()
            if not name.startswith("_") and isinstance(obj, _MEMBER_KINDS)}


class _Uses(ast.NodeVisitor):
    """Names loaded and attributes read, outside the definition of the
    same name; ``qualified`` holds the (owner, attribute) pairs of the
    attributes read off a bare name, such as ("Ideal", "unit")."""

    def __init__(self):
        self.used: set[str] = set()
        self.qualified: set[tuple[str, str]] = set()
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
        if isinstance(node.value, ast.Name) and node.attr not in self.defining:
            self.qualified.add((node.value.id, node.attr))
        self.generic_visit(node)


def _modules() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _uses() -> _Uses:
    uses = _Uses()
    for name, tree in _modules().items():
        if name != "__init__.py":
            uses.visit(tree)
    return uses


def _used_names() -> set[str]:
    return _uses().used


def _unused_members(uses: _Uses) -> list[str]:
    """The "Class.member" keys of the public members ``uses`` does not read."""
    unused = []
    for key, obj in _public_members().items():
        owner, name = key.split(".")
        if isinstance(obj, (classmethod, staticmethod)):
            used = {(owner, name), ("cls", name)} & uses.qualified
        else:
            used = name in uses.used
        if not used:
            unused.append(key)
    return sorted(unused)


def test_every_exported_name_is_used_in_the_package():
    used = _used_names()
    unused = sorted(set(hodgeideals.__all__) - used - ALLOWED_UNUSED)
    assert unused == []


def test_allowlist_holds_only_unused_exports():
    used = _used_names()
    assert ALLOWED_UNUSED <= set(hodgeideals.__all__)
    assert not ALLOWED_UNUSED & used


def test_every_public_member_of_the_core_classes_is_used_in_the_package():
    assert len(_public_members()) > 40  # the scan found the methods
    assert sorted(set(_unused_members(_uses())) - ALLOWED_UNUSED_MEMBERS) == []


def test_member_allowlist_holds_only_unused_members():
    assert ALLOWED_UNUSED_MEMBERS <= set(_public_members())
    assert ALLOWED_UNUSED_MEMBERS <= set(_unused_members(_uses()))


def test_a_constructor_counts_as_used_only_when_read_off_its_class():
    uses = _Uses()
    uses.visit(ast.parse("regime.zero\nPolynomial.one(v)\ncls.constant(v)\nw.diff(0)\n"))
    unused = _unused_members(uses)
    assert {"Polynomial.zero", "Ideal.zero", "Ideal.unit"} <= set(unused)
    assert not {"Polynomial.one", "Polynomial.constant", "Polynomial.diff"} & set(unused)


def test_no_module_imports_a_name_it_never_reads():
    unread = []
    for name, tree in _modules().items():
        if name == "__init__.py":  # it imports to re-export
            continue
        imported = {alias.asname or alias.name.split(".")[0]: node.lineno
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [f"{name}:{line} {alias}" for alias, line in imported.items()
                   if alias not in read]
    assert sorted(unread) == []
