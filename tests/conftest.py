import numpy as np
import pytest
from hypothesis import settings

from dsshift import VertexGeometry, build_weight_matrix, sinkhorn_knopp

settings.register_profile("ci", deadline=None, derandomize=True)
settings.load_profile("ci")


def balanced_operator(n, seed, low=0.5, high=1.5, tol=1e-12):
    """Random positive matrix balanced to doubly stochastic form.

    Entries bounded away from zero keep row entry ratios moderate, so the
    Kantorovich chain stays strictly below 1 for every tested operator.
    """
    rng = np.random.default_rng(seed)
    w = rng.uniform(low, high, (n, n))
    return sinkhorn_knopp(w, tol=tol).operator


def star(n):
    """The star on n vertices without self loops: for n >= 3 it has no
    positive diagonal, so no balancing."""
    w = np.zeros((n, n))
    w[0, 1:] = w[1:, 0] = 1.0
    return w


def random_geometry(n, seed, span=0.1):
    """Sites spread over a ``span``-degree square near 45 N, 7 E."""
    rng = np.random.default_rng(seed)
    return VertexGeometry(
        lat=45 + span * rng.random(n), lon=7 + span * rng.random(n), alt=rng.random(n)
    )


def demo_kernel(u, v, scale=1800.0):
    """The sensor demo's kernel (``scale`` defaults to the demo's) on sites
    at unit-square positions (u east, v north) of its 10 km region and
    altitude hill."""
    lat_half = 0.045
    lon_half = lat_half / np.cos(np.radians(45.0))
    alt = 280.0 * np.exp(-(((u - 0.35) ** 2 + (v - 0.65) ** 2) / 0.4**2))
    geo = VertexGeometry(
        lat=45 + lat_half * (2 * v - 1), lon=7 + lon_half * (2 * u - 1), alt=alt
    )
    return build_weight_matrix(geo, scale=scale, threshold=1e-4, self_loops=True)


def demo_kernel_operator(u, v, tol=1e-13):
    """The demo kernel on the given sites, balanced to ``tol``."""
    return sinkhorn_knopp(demo_kernel(u, v), tol=tol).operator


@pytest.fixture
def small_operator():
    """The hand-verified 2x2 fixed point [[1/3, 2/3], [2/3, 1/3]]."""
    return sinkhorn_knopp(np.array([[1.0, 2.0], [2.0, 1.0]])).operator
