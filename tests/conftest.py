import pytest
from hypothesis import Phase, settings

from tests.checkout import parse

#: every phase but explain, for every property test: explain re-runs a
#: failing example under a line tracer, minutes for the differentials that
#: fork a converged network per example, and looks like a hang in CI.
#: Derandomized: each test draws a function of its own source, so tier-1's
#: verdict is a function of the tree
settings.register_profile(
    "no-explain", phases=[p for p in Phase if p is not Phase.explain], derandomize=True)
#: fresh draws at the same budgets, for the nightly search
#: (``pytest -m hypothesis --hypothesis-profile=search``); what it
#: falsifies is pinned as an ``@example`` on its test
settings.register_profile("search", settings.get_profile("no-explain"), derandomize=False)
settings.load_profile("no-explain")

#: the modules CI's ``determinism`` job runs under ``PYTHONHASHSEED=0`` and
#: ``=random`` (``pytest -m determinism``): one verdict under both seeds.
#: Each replaced mechanism's differential against the oracle it replaced
#: rides with the tests that hold its censuses and recovery paths; a new
#: one joins with one line here.
DETERMINISM = frozenset({
    "tests/test_determinism.py",
    # "a reader outside tests/, or it goes", and the AST discipline
    "tests/test_readers.py",
    "tests/test_discipline.py",
    # the skipping status sampler against the never-skipping one
    "tests/core/test_sampler_oracle.py",
    # begin always, end markers only where they carry news
    "tests/net/test_wire_oracle.py",
    # one FIFO pass per state change, the latched gate, the pass census
    # and the status word
    "tests/net/test_fifo_oracle.py",
    "tests/net/test_fifo.py",
    "tests/net/test_fifo_properties.py",
    "tests/net/test_flowcontrol.py",
    "tests/net/test_pass_census.py",
    "tests/net/test_status_word.py",
    # the whole-packet transmit queue and the control-plane census
    "tests/net/test_transmit_queue_oracle.py",
    "tests/net/test_cp_census.py",
    # the heap water-fill, the kept per-link lists and the solver census
    "tests/traffic/test_fluid_oracle.py",
    "tests/traffic/test_pair_plan.py",
    "tests/traffic/test_solve_census.py",
    # the compiled spec walk and the deque rings
    "tests/obs/test_spec_oracle.py",
    "tests/obs/test_ring_oracle.py",
    # type-keyed dispatch and ReconfigEngine.receive
    "tests/core/test_dispatch_oracle.py",
    "tests/core/test_reconfig_engine_unit.py",
    # one bridge for the two it replaced
    "tests/host/test_bridge_oracle.py",
    "tests/host/test_bridge.py",
    "tests/host/test_autonet_bridge.py",
    # one serial server for three loops, the control processors' run queue
    "tests/host/test_serial_server_oracle.py",
    "tests/sim/test_task_order.py",
    # the calendar queue against the (time, seq) reference heap
    "tests/sim/test_engine.py",
    "tests/sim/test_engine_order.py",
    # a copied world runs on as the original would
    "tests/test_world_copy.py",
})


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "determinism: run by CI's determinism job under two hash seeds"
    )


@pytest.hookimpl(tryfirst=True)
def pytest_collection_modifyitems(items):
    for item in items:
        if item.nodeid.split("::")[0] in DETERMINISM:
            item.add_marker(pytest.mark.determinism)


def pytest_sessionfinish():
    """Free the one parse of the checkout before pytest's own cleanup,
    whose full garbage collections would otherwise walk every node of it."""
    parse.cache_clear()
