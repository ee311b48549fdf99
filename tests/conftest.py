"""Shared fixtures, and the Hypothesis profile of CI runs."""

import os
import sys

import pytest
from hypothesis import settings

from helpers import term_dicts

# On CI (``CI`` set), a failing property prints the blob that replays it
# locally (``@reproduce_failure``), and no example fails on a slow runner's
# time.  The examples and their number are the default profile's.
settings.register_profile("ci", print_blob=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")


def _record_calls(monkeypatch, real, record):
    """Replace ``real`` by a recording wrapper in every package module that
    holds it; each call appends ``record(*args, **kwargs)`` to the returned
    list."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(record(*args, **kwargs))
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "hodgeideals" and \
                getattr(module, real.__name__, None) is real:
            monkeypatch.setattr(module, real.__name__, counted)
    return calls


@pytest.fixture
def groebner_calls(monkeypatch):
    """A list that gets one entry per ``groebner_basis`` call, counted in
    every package module that holds the function."""
    import hodgeideals.ideal
    return _record_calls(monkeypatch, hodgeideals.ideal.groebner_basis,
                         lambda *args, **kwargs: 1)


@pytest.fixture
def graded_calls(monkeypatch):
    """A list that gets one entry per ``graded_basis`` call, counted in
    every package module that holds the function."""
    import hodgeideals.ideal
    return _record_calls(monkeypatch, hodgeideals.ideal.graded_basis,
                         lambda *args, **kwargs: 1)


@pytest.fixture
def graded_inputs(monkeypatch):
    """A list that gets the generator rows of every ``graded_basis`` call,
    as a tuple of term dicts, recorded in every package module that holds
    it."""
    import hodgeideals.ideal
    return _record_calls(monkeypatch, hodgeideals.ideal.graded_basis,
                         lambda generators, *rest: term_dicts(generators))


@pytest.fixture
def normal_form_calls(monkeypatch):
    """A list that gets one entry per ``normal_form`` call, counted in
    every package module that holds the function."""
    import hodgeideals.ideal
    return _record_calls(monkeypatch, hodgeideals.ideal.normal_form,
                         lambda *args, **kwargs: 1)


@pytest.fixture
def groebner_inputs(monkeypatch):
    """A list that gets ``(generators, known)`` for every ``groebner_basis``
    call, as tuples, recorded in every package module that holds it."""
    import hodgeideals.ideal
    return _record_calls(monkeypatch, hodgeideals.ideal.groebner_basis,
                         lambda generators, order=None, known=():
                         (tuple(generators), tuple(known)))


@pytest.fixture
def twist_calls(monkeypatch):
    """A list that gets the divisor of every ``twist_polynomial`` call,
    counted in every package module that holds the function."""
    import hodgeideals.divisor
    return _record_calls(monkeypatch, hodgeideals.divisor.twist_polynomial,
                         lambda divisor: divisor)


@pytest.fixture
def chain_calls(monkeypatch):
    """A list that gets the divisor of every ``compute_chain`` call,
    counted in every package module that holds the function."""
    import hodgeideals.compute
    return _record_calls(monkeypatch, hodgeideals.compute.compute_chain,
                         lambda divisor, *args, **kwargs: divisor)
