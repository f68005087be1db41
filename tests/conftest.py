import os

# One BLAS thread for the suite and the worker processes it starts, set
# before numpy loads OpenBLAS.  The fits here are small dense problems;
# on a 2-core machine a second OpenBLAS thread spins through every fit
# (CPU time twice wall time) and the wall time of one fit swings by up
# to 5x while another process holds a core, which is what the timing
# in acceptance Check 8 then measures.  perfbench pins BLAS the same way.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from hbspline import Dataset, gen_design, scale_to_unit_cube

# Matrix-heavy properties can blow hypothesis' per-example deadline on
# slow CI machines; the suite relies on pytest-level timeouts instead.
settings.register_profile(
    "default", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("default")


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(20240817)))


@pytest.fixture
def banana_data():
    """Curved-ridge design with a smooth response, scaled to the cube."""

    def make(n=2000, d=2, seed=0, noise=0.0) -> Dataset:
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        raw = gen_design("d4", n, d, gen)
        y = raw[:, 0] + np.sin(raw[:, 1])
        if noise:
            y = y + noise * gen.standard_normal(n)
        return scale_to_unit_cube(raw, y)

    return make


@pytest.fixture
def uniform_data():
    def make(n=500, d=2, seed=1) -> Dataset:
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        X = gen.random((n, d))
        y = gen.standard_normal(n)
        return scale_to_unit_cube(X, y)

    return make
