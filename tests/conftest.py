import numpy as np
import pytest
from hypothesis import settings

# "fixed", the default, draws every property's examples from the test's own
# name, so a commit's verdict does not change from run to run.  "explore"
# draws them from --hypothesis-seed (or a fresh seed); it is a profile of its
# own because derandomize, once set, takes precedence over that seed.
# Neither keeps a database, whose replayed examples would also vary a verdict.
settings.register_profile("fixed", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False, database=None)
settings.load_profile("fixed")


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
