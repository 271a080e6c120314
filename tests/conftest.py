import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite", deadline=None, max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def forcing_bound():
    """The relative residual a warm-started zero update may end at, from the
    relative residual of its start: ``max(CG_RTOL, CG_FORCING * start)``,
    read at call time so that a patched ``CG_FORCING`` counts.

    CG stops on its recurrence residual, while a record (and any check by
    another operator) holds the true residual of the returned u. The two
    part by rounding alone, orders of magnitude below the forcing terms the
    loop meets, so the forcing term gets 1% slack. ``CG_RTOL`` gets none:
    every update met it without slack before the forcing term existed.
    """
    from tvdeblur import transforms

    def bound(start_residual):
        return max(transforms.CG_RTOL, 1.01 * transforms.CG_FORCING * start_residual)
    return bound
