import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import cplab.lax

settings.register_profile(
    "cplab",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("cplab")


@pytest.fixture(autouse=True)
def no_held_spectral_sides():
    """Each test starts with spectral_match's side cache empty, so no side
    computed in one test (perhaps under a patched kernel) is read in another."""
    cplab.lax._spectral_side.cache_clear()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def nan_like(value):
    """value with every number replaced by NaN, in the same shape and container."""
    if isinstance(value, dict):
        return {k: nan_like(v) for k, v in value.items()}
    if isinstance(value, tuple):
        return tuple(nan_like(v) for v in value)
    return np.full_like(value, np.nan) if np.ndim(value) else np.nan


@pytest.fixture
def nan_on_call(monkeypatch):
    """nan_on_call(module, name, call) makes call number `call` of module.name return NaN.

    It returns the list of the calls made, so that a test can assert that
    the faulty call happened.
    """
    def patch(module, name, call):
        real = getattr(module, name)
        calls = []

        def faulty(*args, **kwargs):
            calls.append(name)
            value = real(*args, **kwargs)
            return nan_like(value) if len(calls) == call else value

        monkeypatch.setattr(module, name, faulty)
        return calls
    return patch
