"""No public name survives that nothing in the package uses.

Every name in ``hodgeideals.__all__``, and every public method and
property of the core classes (``CLASSES``), must be read somewhere in
``src/hodgeideals/`` outside its own definition and ``__init__.py``.
Imports and assignments do not count as uses.

A classmethod or staticmethod counts as used only when it is read as
``<ClassName>.<name>`` or ``cls.<name>``; any other member counts as
used when an attribute of the same name is read (a bare variable of
that name does not count).  No module of the package imports a name
it never reads.

Two shapes are pinned for readers outside ``src``, and one layering
rule holds: ``certificates.py`` works on numbers alone.
"""

import ast
import functools
import types
from pathlib import Path

import hodgeideals
from hodgeideals import (
    HodgeIdealResult,
    Ideal,
    MonomialOrder,
    Polynomial,
    QDivisor,
    certificate_for,
    classify,
    hodge_chain,
    i0_seed,
    ordinary_ideal,
    parse_divisor,
    smooth_support_ideal,
    snc_hodge_ideal,
)

PACKAGE = Path(hodgeideals.__file__).resolve().parent

ALLOWED_UNUSED: set[str] = set()


CLASSES = (Polynomial, Ideal, QDivisor, MonomialOrder, HodgeIdealResult)

# Members the scan must find: each class of CLASSES, and each kind of
# member (method, classmethod, property, cached property).
SCANNED_MEMBERS = {"Polynomial.diff", "Polynomial.one", "Ideal.groebner", "Ideal.from_basis",
                   "QDivisor.alphas", "QDivisor.grading", "MonomialOrder.from_name",
                   "HodgeIdealResult.notes"}

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
    same name; ``attributes`` holds the attribute names alone, and
    ``qualified`` the (owner, attribute) pairs of the attributes read off
    a bare name, such as ("Ideal", "unit")."""

    def __init__(self):
        self.used: set[str] = set()
        self.attributes: set[str] = set()
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
        if node.attr not in self.defining:
            self.attributes.add(node.attr)
            if isinstance(node.value, ast.Name):
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
            used = name in uses.attributes
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
    members = set(_public_members())
    assert {key.split(".")[0] for key in members} == {cls.__name__ for cls in CLASSES}
    assert SCANNED_MEMBERS <= members
    assert sorted(set(_unused_members(_uses())) - ALLOWED_UNUSED_MEMBERS) == []


def test_member_allowlist_holds_only_unused_members():
    assert ALLOWED_UNUSED_MEMBERS <= set(_public_members())
    assert ALLOWED_UNUSED_MEMBERS <= set(_unused_members(_uses()))


def test_a_constructor_counts_as_used_only_when_read_off_its_class():
    uses = _Uses()
    uses.visit(ast.parse("regime.zero\nPolynomial.one(v)\ncls.constant(v)\nw.diff(0)\n"
                         "extend = 1\nprint(extend)\n"))
    unused = _unused_members(uses)
    assert {"Polynomial.zero", "Ideal.zero", "Ideal.unit"} <= set(unused)
    # A bare variable of a member's name is not a use of the member.
    assert {"Polynomial.extend", "Ideal.extend"} <= set(unused)
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


def test_certificates_imports_no_package_module_but_poly():
    # The triviality and non-triviality criteria are inequalities on the
    # numbers of a log resolution or of multiplicities, not on ideals.
    tree = _modules()["certificates.py"]
    modules = {"." * node.level + (node.module or "") for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)}
    modules |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    package = {name for name in modules if name.startswith((".", "hodgeideals"))}
    assert package <= {".poly", "hodgeideals.poly"}


def _divisor(f, alpha, variables):
    return parse_divisor({"vars": list(variables), "components": [{"f": f, "alpha": alpha}]})


def test_shapes_the_benchmark_tracer_reads():
    # perfbench/tracing.py computes recursion.exact_frac from
    # hodge_chain(...).results[i].exact, and closed_forms.generators from
    # len(result.ideal.generators) of each closed form's result.
    regime = classify(_divisor("x^2+y^3", "1/2", "xy"))
    chain = hodge_chain(regime, 2, i0_seed(regime), certificate_for(regime))
    assert [result.k for result in chain.results] == [0, 1, 2]
    assert all(isinstance(result.exact, bool) for result in chain.results)
    for closed_form, f, variables in ((smooth_support_ideal, "x", "xy"),
                                      (snc_hodge_ideal, "x*y", "xy"),
                                      (ordinary_ideal, "x^2+y^2+z^2", "xyz")):
        result = closed_form(classify(_divisor(f, "3/4", variables)), 1)
        assert result.ideal.generators
        assert all(isinstance(g, Polynomial) for g in result.ideal.generators)
