"""The suite's settings in pyproject.toml hold: deprecations are errors.

numpy is installed unpinned, so a deprecation that the package hits must
fail the suite rather than scroll past in its summary.
"""

import warnings

import pytest


@pytest.mark.parametrize("category", [DeprecationWarning, FutureWarning])
def test_deprecation_is_an_error(category):
    with pytest.raises(category):
        warnings.warn("probe", category)
