"""Shared fixtures."""

import sys

import pytest


@pytest.fixture
def groebner_calls(monkeypatch):
    """A list that gets one entry per ``groebner_basis`` call, counted in
    every package module that holds the function."""
    import hodgeideals.ideal
    real = hodgeideals.ideal.groebner_basis
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "hodgeideals" and \
                getattr(module, "groebner_basis", None) is real:
            monkeypatch.setattr(module, "groebner_basis", counted)
    return calls
