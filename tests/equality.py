"""Bit-exact equality of tables and labels, for the tests' asserts."""

import numpy as np


def _same_cells(a, b) -> bool:
    return (a.values.shape == b.values.shape and np.array_equal(a.missing, b.missing)
            and np.array_equal(a.values[~a.missing], b.values[~b.missing]))


def tables_equal(a, b) -> bool:
    """Same schema, same flags, same present values."""
    return a.schema == b.schema and _same_cells(a, b)


def labels_equal(a, b) -> bool:
    """Same kind, categories, flags and present values."""
    return a.kind is b.kind and a.categories == b.categories and _same_cells(a, b)
