"""Chaos campaigns with a workload aboard: observational, and recorded."""

import json
import os

from repro.chaos.campaign import CampaignConfig, CampaignRunner
from repro.chaos.replay import replay_artifact, reproducer_dict
from repro.obs import artifact
from repro.traffic.artifact import validate_traffic
from repro.traffic.workload import TrafficConfig

SMALL_TRAFFIC = TrafficConfig(
    pattern="uniform", flows=30, hosts=12, mean_flow_bytes=16_384, duration_ns=300_000_000
)


class SmallTrafficRunner(CampaignRunner):
    """Drives ``SMALL_TRAFFIC`` through every schedule it runs."""

    def build_network(self, schedule, **observers):
        return super().build_network(schedule, **{**observers, "traffic": SMALL_TRAFFIC})


def _runner(runner_class=CampaignRunner):
    return runner_class(CampaignConfig(topology="ring-4", schedules=1))


def test_traffic_is_observational_at_campaign_level():
    schedule = _runner().sample_schedule(0)
    without = _runner().run_schedule(schedule)
    with_traffic = _runner(SmallTrafficRunner).run_schedule(schedule)
    # the fluid model changes nothing the checks see
    assert without.checks_run == with_traffic.checks_run
    assert without.sim_ns == with_traffic.sim_ns
    assert without.epochs == with_traffic.epochs
    assert without.violations == with_traffic.violations == []


def test_traffic_path_alone_implies_default_workload(tmp_path):
    runner = _runner()
    schedule = runner.sample_schedule(0)
    path = str(tmp_path / "implied.traffic.json")
    result = runner.run_schedule(schedule, name="implied", artifacts=str(tmp_path))
    # the workload is recorded, not checked: the run checks what it
    # checks without artifacts
    assert result.checks_run == runner.run_schedule(schedule).checks_run
    validate_traffic(json.load(open(path)))


def test_replay_writes_traffic_artifact(tmp_path):
    runner = _runner()
    schedule = runner.sample_schedule(0)
    reproducer = str(tmp_path / "reproducer.json")
    artifact.write(reproducer, reproducer_dict(schedule, violations=[]))
    result = replay_artifact(reproducer, artifacts=str(tmp_path))
    path = str(tmp_path / f"{result.name}.traffic.json")
    assert result.checks_run == runner.run_schedule(schedule).checks_run
    validate_traffic(json.load(open(path)))


def test_fluid_document_is_byte_identical_to_the_one_written_beside_packet_mode(tmp_path):
    """``config.mode``, ``drops`` and ``packets_delivered`` were the
    per-packet mode's fields; no fluid run ever set them, so with that
    mode gone (``tests/naive_traffic.py``) they are constants and the
    file a chaos schedule writes is the file it wrote before."""
    runner = _runner(SmallTrafficRunner)
    runner.run_schedule(runner.sample_schedule(0), name="schedule", artifacts=str(tmp_path))
    golden = os.path.join(os.path.dirname(__file__), "fixtures", "schedule.traffic.json")
    with open(golden, "rb") as fh:
        assert (tmp_path / "schedule.traffic.json").read_bytes() == fh.read()
