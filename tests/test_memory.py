"""Traced memory of the largest per-level transients.

tracemalloc sees every numpy data buffer, so the peak of a call measures
how many field-sized arrays it keeps alive at once.  The bounds are
multiples of one input field's bytes: the in-place curl-potential
integration peaks near 3.1 of its inputs (8.0 when every path quantity
had its own array), and a whole codim-6 level near 16 of its 28-component
fields (23 when h_ij, grad H and the flux temporaries were all kept).
"""

import tracemalloc
from dataclasses import fields

import numpy as np

from willmore import pipeline
from willmore.curvature import CurvatureField
from willmore.grid import PolarGrid
from willmore.residues import integrate_curl_potential


def traced_peak(fn, *args) -> int:
    """Bytes above the starting point at the peak of ``fn(*args)``."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_curl_potential_peak_is_three_inputs():
    grid = PolarGrid(1e-3, 1.0, 96, 64)
    vx, vy = np.random.default_rng(7).standard_normal((2, 96, 64, 28))
    integrate_curl_potential(grid, vx, vy)  # the grid's trig tables
    assert traced_peak(integrate_curl_potential, grid, vx, vy) \
        < 3.5 * vx.nbytes


def test_codim6_level_peak():
    settings = pipeline.resolve({
        "surface": {"name": "inverted_catenoid", "ambient_dim": 8},
        "grid": {"r_min": 1e-3, "r_max": 1.0, "n_r": 48, "n_theta": 32},
        "with_potentials": True})
    grid = settings.grids[0]
    pipeline.analyze_level(settings, grid)  # grid caches, algebra tables
    field_bytes = grid.n_r * grid.n_theta * 28 * 8
    assert traced_peak(pipeline.analyze_level, settings, grid) \
        < 18 * field_bytes


def test_curvature_field_keeps_no_second_fundamental_form():
    # h_ij are temporaries of K, and grad H belongs to the equation pass
    names = {f.name for f in fields(CurvatureField)}
    assert not names & {"h11", "h12", "h22"}
    assert not hasattr(CurvatureField, "dH")
