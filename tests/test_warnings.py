"""The pytest configuration turns deprecations raised by the library into errors.

A deprecation in numpy or scipy that the library trips over (such as the
removal of ``np.trapz``) then fails the test that reaches it, one release
before the removal turns into an AttributeError.
"""

import warnings

import pytest


def _warn_from(module: str) -> None:
    # warnings.warn attributes the warning to the module named by the
    # calling frame's __name__, which the filter's module regex is matched on
    code = compile("warnings.warn('deprecated call', DeprecationWarning)", "<probe>", "exec")
    exec(code, {"warnings": warnings, "__name__": module})


@pytest.mark.parametrize("module", ["spectral_edge", "spectral_edge.limitlaws",
                                    "spectral_edge.transition"])
def test_library_deprecation_is_an_error(module):
    with pytest.raises(DeprecationWarning):
        _warn_from(module)


@pytest.mark.parametrize("module", ["spectral_edge_extras", "tests.helpers"])
def test_other_deprecation_stays_a_warning(module):
    with warnings.catch_warnings(record=True) as caught:
        _warn_from(module)
    assert [w.category for w in caught] == [DeprecationWarning]
