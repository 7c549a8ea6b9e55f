"""The pytest configuration turns deprecations and RuntimeWarnings raised by
the library into errors.

A deprecation in numpy or scipy that the library trips over (such as the
removal of ``np.trapz``) then fails the test that reaches it, one release
before the removal turns into an AttributeError.  An overflow, invalid value
or division by zero in library code fails the test that reaches it too.
"""

import warnings

import numpy as np
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


def _numpy_from(module: str, expr: str):
    # a numpy floating-point warning is attributed to the calling frame too
    code = compile(expr, "<probe>", "eval")
    return eval(code, {"np": np, "__name__": module})


_FP_FAULTS = ["np.exp(np.array([1000.0]))", "np.array([0.0]) / np.array([0.0])",
              "np.array([1.0]) / np.array([0.0])"]


@pytest.mark.parametrize("expr", _FP_FAULTS, ids=["overflow", "invalid", "divide"])
def test_library_runtime_warning_is_an_error(expr):
    with pytest.raises(RuntimeWarning):
        _numpy_from("spectral_edge.transition", expr)


@pytest.mark.parametrize("expr", _FP_FAULTS, ids=["overflow", "invalid", "divide"])
def test_other_runtime_warning_stays_a_warning(expr):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        _numpy_from("tests.helpers", expr)
    assert [w.category for w in caught] == [RuntimeWarning]
