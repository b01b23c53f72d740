from tests.checkout import parse


def pytest_sessionfinish():
    """Free the one parse of the checkout before pytest's own cleanup,
    whose full garbage collections would otherwise walk every node of it."""
    parse.cache_clear()
