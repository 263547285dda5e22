"""The suite's settings in pyproject.toml hold: deprecations and runtime warnings are errors,
with one exception.

numpy is installed unpinned, so a deprecation that the package hits must
fail the suite rather than scroll past in its summary.  The CLI prints every
RuntimeWarning, so one that the numerics emit (an overflow, an invalid
operation on a failing step) must fail the suite too.
"""

import warnings

import pytest


@pytest.mark.parametrize("category", [DeprecationWarning, FutureWarning])
def test_deprecation_is_an_error(category):
    with pytest.raises(category):
        warnings.warn("probe", category)


def test_runtime_warning_is_an_error():
    with pytest.raises(RuntimeWarning):
        warnings.warn("probe", RuntimeWarning)


def test_typeddict_deprecation_of_mypy_extensions_is_ignored():
    # hypothesis reports a failing example through libcst, whose use of
    # mypy_extensions.TypedDict warns; as an error it would abort the whole run
    message = "mypy_extensions.TypedDict is deprecated, and will be removed in a future version."
    warnings.warn(message, DeprecationWarning)
    with pytest.raises(DeprecationWarning):
        warnings.warn("probe", DeprecationWarning)
