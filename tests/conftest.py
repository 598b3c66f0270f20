import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import divmax as dm

# Property tests build instances and run solvers inside @given bodies; wall
# clock there depends on the machine, so the deadline is disabled globally.
settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")

SQUARE = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]


@pytest.fixture
def square() -> dm.MetricInstance:
    """Unit-square corners under l2; the standard tiny oracle fixture."""
    return dm.MetricInstance.from_points(SQUARE)


@pytest.fixture
def square_center() -> dm.MetricInstance:
    return dm.MetricInstance.from_points(SQUARE + [[0.5, 0.5]])


@pytest.fixture
def line4() -> dm.MetricInstance:
    """Collinear points at 0, 1, 2, 3."""
    return dm.MetricInstance.from_points([[0.0], [1.0], [2.0], [3.0]])


@pytest.fixture
def line013() -> dm.MetricInstance:
    """Collinear points at 0, 1, 3."""
    return dm.MetricInstance.from_points([[0.0], [1.0], [3.0]])


def exact_diameter(inst: dm.MetricInstance) -> float:
    best = 0.0
    for u in range(inst.n):
        best = max(best, float(inst.dists_from(u).max()))
    return best


def random_subsets(rng: np.random.Generator, n: int, k: int, count: int) -> np.ndarray:
    """Index rows of width k without replacement, as a (count, k) array."""
    return np.array([rng.choice(n, size=k, replace=False) for _ in range(count)],
                    dtype=np.int64)


def term_count(kind: str, k: int) -> int:
    """Number of distance terms an objective sums on k points; divides a value
    into an average."""
    return {"clique": k * (k - 1) // 2, "star": k - 1, "bipartition": k * k // 4}[kind]
