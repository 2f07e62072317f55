import os

# one BLAS thread per test process, set before numpy loads its BLAS: two test
# processes on a small host otherwise oversubscribe its cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from spinshield.spectral import PatchSignalClip


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_clip(rng, patches=3, frames=16, fps=25.0):
    return PatchSignalClip(signals=rng.normal(size=(patches, frames)), fps=fps)
