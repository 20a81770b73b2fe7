"""Shared fixtures."""

import sys

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """Count the calls of a function wherever a b2weight module binds it.

    ``count_calls(module, name)`` replaces ``module.name`` and every b2weight
    module attribute that is the same function with a counting wrapper for
    the test and returns the list that collects one entry per call.
    """

    def install(module, name):
        original = getattr(module, name)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        for key, owner in list(sys.modules.items()):
            if key == "b2weight" or key.startswith("b2weight."):
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        monkeypatch.setattr(owner, attr, counted)
        return calls

    return install
