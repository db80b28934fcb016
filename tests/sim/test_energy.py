"""Tests for the energy model."""

import pytest

from repro.runtime.timeline import Timeline
from repro.sim.energy import DevicePower, EnergyModel


def make_timeline():
    timeline = Timeline()
    timeline.schedule("cpu", "work", 2.0)
    timeline.schedule("gpu", "dnn", 1.0, bytes_moved=100)
    return timeline


class TestDevicePower:
    def test_rejects_active_below_idle(self):
        with pytest.raises(ValueError, match="below idle"):
            DevicePower(active_w=1.0, idle_w=2.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            DevicePower(active_w=-1.0, idle_w=-2.0)


class TestEnergyModel:
    def test_busy_idle_split(self):
        model = EnergyModel(
            {
                "cpu": DevicePower(active_w=100.0, idle_w=10.0),
                "gpu": DevicePower(active_w=200.0, idle_w=20.0),
            }
        )
        report = model.energy(make_timeline())
        # Makespan is 2s: CPU busy 2.0/idle 0; GPU busy 1.0/idle 1.0.
        assert report.per_resource["cpu"] == pytest.approx(200.0)
        assert report.per_resource["gpu"] == pytest.approx(220.0)
        assert report.total == pytest.approx(420.0)

    def test_per_byte_term(self):
        model = EnergyModel(
            {
                "cpu": DevicePower(active_w=0.0, idle_w=0.0),
                "gpu": DevicePower(active_w=0.0, idle_w=0.0, pj_per_byte=1e6),
            }
        )
        report = model.energy(make_timeline())
        assert report.per_resource["gpu"] == pytest.approx(100 * 1e6 * 1e-12)

    def test_missing_resource_spec_raises(self):
        model = EnergyModel({"cpu": DevicePower(active_w=1.0, idle_w=0.0)})
        with pytest.raises(KeyError, match="gpu"):
            model.energy(make_timeline())

    def test_unused_resource_contributes_nothing(self):
        model = EnergyModel(
            {
                "cpu": DevicePower(active_w=100.0, idle_w=10.0),
                "gpu": DevicePower(active_w=200.0, idle_w=20.0),
                "nmp": DevicePower(active_w=500.0, idle_w=100.0),
            }
        )
        report = model.energy(make_timeline())
        assert "nmp" not in report.per_resource

    def test_empty_power_book_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            EnergyModel({})

    def test_faster_timeline_cheaper(self):
        model = EnergyModel({"cpu": DevicePower(active_w=100.0, idle_w=10.0)})
        slow, fast = Timeline(), Timeline()
        slow.schedule("cpu", "work", 4.0)
        fast.schedule("cpu", "work", 1.0)
        assert model.energy(fast).total < model.energy(slow).total
