"""perfbench's tracer wraps facetfit's layer functions by module attribute.

``Tracer.installed()`` raises ``KeyError`` when one of those attributes is
gone, so renaming or dropping a wrapped name fails here, not only in
``perfbench/harness.py trace``.
"""

import numpy as np

from facetfit import catalog
from facetfit.design import Dataset, build_design
from facetfit.estimator import reconstruct
from perfbench.tracing import _WRAPPED, Tracer


def test_tracer_installs_and_restores_every_wrapped_name():
    before = [owner.__dict__[attr] for _, owner, attr in _WRAPPED]
    with Tracer().installed():
        for _, owner, attr in _WRAPPED:
            assert hasattr(owner.__dict__[attr], "__wrapped__")
    assert [owner.__dict__[attr] for _, owner, attr in _WRAPPED] == before


def test_tracer_counts_the_one_design_factorization():
    # Exact values of an interior support vector: the active-set path never
    # adds a wall, so the design's cached factorization is the only SVD.
    hexagon = catalog.hexagon_fan()
    U = np.random.default_rng(5).standard_normal((40, 2))
    y = build_design(hexagon, U).matrix @ np.ones(6)
    tracer = Tracer()
    with tracer.installed():
        res = reconstruct(hexagon, Dataset(U, y))
    assert res.uniqueness.numeric_rank == 6
    assert tracer.calls["qp.rank"] == 1
    assert tracer.calls["qp.cls"] == 1
