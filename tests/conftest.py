import pytest
from hypothesis import settings

from monappell import initial_terms, polynomials, sequences

settings.register_profile("exact", deadline=None, max_examples=60)
settings.load_profile("exact")


@pytest.fixture
def fresh_certificate():
    """Run the memoized operator certificate again in this test, under its
    patched kernels: its memo is emptied before and after."""
    sequences._operator_certificate.cache_clear()
    yield
    sequences._operator_certificate.cache_clear()


@pytest.fixture
def no_large_products(monkeypatch):
    """Make every product of degree above 1, and every generator power
    (x_i - e_ij x_j)^k with k above 1, fail at once with AssertionError, so
    that a request past the degree limit that no check stops fails fast
    instead of running its products."""
    product, power = polynomials._product, initial_terms._generator_power

    def small_product(a, b, cls=None):
        degree = sum(getattr(x, "total_degree", lambda: 0)() for x in (a, b))
        assert degree <= 1, f"a product of degree {degree} ran"
        return product(a, b, cls)

    def small_power(context, k, i, j):
        assert k <= 1, f"the generator power of degree {k} ran"
        return power(context, k, i, j)

    monkeypatch.setattr(polynomials, "_product", small_product)
    monkeypatch.setattr(initial_terms, "_generator_power", small_power)
