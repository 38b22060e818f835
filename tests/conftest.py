import pytest
from hypothesis import settings

from monappell import sequences

settings.register_profile("exact", deadline=None, max_examples=60)
settings.load_profile("exact")


@pytest.fixture
def fresh_certificate():
    """Run the memoized operator certificate again in this test, under its
    patched kernels: its memo is emptied before and after."""
    sequences._operator_certificate.cache_clear()
    yield
    sequences._operator_certificate.cache_clear()
