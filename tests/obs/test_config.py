"""``Network(timeseries=/inband=/traffic=...)`` share one ``coerce``."""

import pytest

from repro.network import Network
from repro.obs.inband import InbandConfig
from repro.obs.timeseries import TimeSeriesConfig
from repro.topology import ring
from repro.traffic.workload import TrafficConfig

LAYERS = [
    pytest.param(TimeSeriesConfig, "interval_ns", "timeseries", id="timeseries"),
    pytest.param(InbandConfig, "max_hops", "inband", id="inband"),
    pytest.param(TrafficConfig, "flows", "traffic", id="traffic"),
]


@pytest.mark.parametrize("config, int_field, kwarg", LAYERS)
def test_coerce_accepts_the_same_shorthand_on_every_layer(config, int_field, kwarg):
    assert config.coerce(None) is None
    assert config.coerce(False) is None
    assert config.coerce(True) == config()
    assert getattr(config.coerce(7), int_field) == 7
    assert config.coerce({int_field: 9}) == config(**{int_field: 9})
    instance = config()
    assert config.coerce(instance) is instance


@pytest.mark.parametrize("config, int_field, kwarg", LAYERS)
def test_coerce_rejects_unknown_keys_and_foreign_types(config, int_field, kwarg):
    with pytest.raises(ValueError, match=f"unknown {config.__name__} fields.*'bogus'"):
        config.coerce({int_field: 1, "bogus": 2})
    for junk in ("yes", 3.5, [1], object()):
        with pytest.raises(TypeError, match=config.__name__):
            config.coerce(junk)
    # ... and at build time, not at the first stamp
    with pytest.raises(TypeError):
        Network(ring(3), **{kwarg: "yes"})
