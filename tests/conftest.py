from hypothesis import Phase, settings

from tests.checkout import parse

#: every phase but explain, for every property test: explain re-runs a
#: failing example under a line tracer, minutes for the differentials that
#: fork a converged network per example, and looks like a hang in CI
settings.register_profile("no-explain", phases=[p for p in Phase if p is not Phase.explain])
settings.load_profile("no-explain")


def pytest_sessionfinish():
    """Free the one parse of the checkout before pytest's own cleanup,
    whose full garbage collections would otherwise walk every node of it."""
    parse.cache_clear()
