import pytest

from berrypick import camera, cli
from berrypick.scene import sample_surface_arrays


@pytest.fixture(autouse=True)
def cold_view_cache():
    """Start every test with no kept camera view and no kept scenario, so
    no test depends on what an earlier one rendered or built."""
    camera._last_views = None
    cli._last_built = None


@pytest.fixture
def sample_calls(monkeypatch):
    """Record each surface sampling the camera makes."""
    calls = []

    def counting(*args):
        calls.append(args)
        return sample_surface_arrays(*args)

    monkeypatch.setattr(camera, "sample_surface_arrays", counting)
    return calls
