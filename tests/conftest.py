import pytest

from berrypick import camera, cli, cutter
from berrypick.scene import sample_surface_arrays


@pytest.fixture(autouse=True)
def cold_view_cache():
    """Start every test with no kept scenario, and so none of the camera
    views a build keeps, and no memoized burn, so no test depends on what
    an earlier one rendered, built or burned."""
    cli._last_built = None
    cutter._burn.cache_clear()


@pytest.fixture
def sample_calls(monkeypatch):
    """Record each surface sampling the camera makes."""
    calls = []

    def counting(*args):
        calls.append(args)
        return sample_surface_arrays(*args)

    monkeypatch.setattr(camera, "sample_surface_arrays", counting)
    return calls
