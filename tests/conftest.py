import pytest

import qfcsim.tomography


@pytest.fixture(autouse=True)
def empty_resample_cache():
    """Start every test without a cached Monte-Carlo stack, so that tests
    counting MLE solves do not depend on the tests that ran before them."""
    qfcsim.tomography._resampled_mle.cache_clear()
