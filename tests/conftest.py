"""Fixtures shared by the test modules."""

from fractions import Fraction

import pytest


@pytest.fixture
def fractions_built():
    """Counts Fraction constructions; the constructor is restored after the
    test."""
    original = vars(Fraction)["__new__"]
    count = [0]

    def counting_new(cls, *args, **kwargs):
        count[0] += 1
        return original.__func__(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counting_new)
    try:
        yield count
    finally:
        Fraction.__new__ = original
