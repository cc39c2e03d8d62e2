"""Micro-benchmarks: every axis, both implementations (Figure 4 vs delta split).

Per-operator costs on a mid-size corpus instance: upward axes are in-place
mask passes (Proposition 3.3), downward/sibling axes clone the vertices
that split, at most doubling the instance (Proposition 3.2).  The Figure 4
in-place splitter is timed against the scan-split-commit kernel on the
downward axes it implements.
"""

from __future__ import annotations

import pytest

from repro.engine.axes_compressed import apply_axis
from repro.engine.axes_inplace import downward_axis_inplace
from repro.skeleton.loader import load_instance

ALL_AXES = [
    "self",
    "child",
    "parent",
    "descendant",
    "ancestor",
    "descendant-or-self",
    "ancestor-or-self",
    "following-sibling",
    "preceding-sibling",
    "following",
    "preceding",
]


@pytest.fixture(scope="module")
def swissprot_instance(corpus_cache):
    return load_instance(corpus_cache("swissprot"), tags=None)


@pytest.mark.parametrize("axis", ALL_AXES)
def test_axis_functional(benchmark, swissprot_instance, axis):
    benchmark(
        lambda: apply_axis(swissprot_instance.copy(), axis, "Record", "out")
    )


@pytest.mark.parametrize("axis", ["child", "descendant", "descendant-or-self"])
def test_axis_inplace_figure4(benchmark, swissprot_instance, axis):
    benchmark(
        lambda: downward_axis_inplace(swissprot_instance.copy(), axis, "Record", "out")
    )
