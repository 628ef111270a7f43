import pytest

import qfcsim.tomography


@pytest.fixture(autouse=True)
def empty_resample_memo():
    """Start every test without a kept Monte-Carlo stack, so that tests
    counting MLE solves do not depend on the tests that ran before them."""
    qfcsim.tomography._last_resample = None
