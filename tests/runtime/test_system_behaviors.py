"""Behavioral tests: how workload knobs propagate through the system models."""

import dataclasses

import pytest

from repro.model.configs import RM1, RM2
from repro.runtime.systems import (
    CPUGPUSystem,
    NMPSystem,
    OP_BWD_SCATTER,
    OP_BWD_TCAST,
    OURS_CPU,
    SystemHardware,
    TrainingSystem,
    compute_workload,
)
from repro.sim.interconnect import Link
from repro.sim.specs import DEFAULT_NMP_LINK

#: Ours(CPU)'s casting stage: the index upload, the cast, the index download.
CAST_STAGE = ("index_up", "cast", "pairs")


def cast_after_grads(record):
    """``record`` with its casting stage moved after the gradient download."""
    stage = tuple(p for p in record if p.key in CAST_STAGE)
    rest = [p for p in record if p.key not in CAST_STAGE]
    at = [p.key for p in rest].index("grads") + 1
    return tuple(rest[:at]) + stage + tuple(rest[at:])


class SerialCastSystem(TrainingSystem):
    """Ours(CPU) with the cast exposed on the backward's critical path."""

    name = "Ours(CPU, serial cast)"
    primitives = cast_after_grads(OURS_CPU)


class TestOptimizerChoice:
    def test_stateful_optimizer_slows_scatter(self, shared_hardware):
        """Adagrad's extra state tensor is one more RMW per row
        (Equations 1-2) - visible in the scatter latency."""
        sgd = compute_workload(RM1, 2048, optimizer="sgd")
        adagrad = compute_workload(RM1, 2048, optimizer="adagrad")
        system = CPUGPUSystem(shared_hardware, casting=True)
        t_sgd = system.run_iteration(sgd).breakdown[OP_BWD_SCATTER]
        t_ada = system.run_iteration(adagrad).breakdown[OP_BWD_SCATTER]
        assert t_ada > t_sgd

    def test_optimizer_choice_leaves_forward_untouched(self, shared_hardware):
        sgd = compute_workload(RM1, 2048, optimizer="sgd")
        adam = compute_workload(RM1, 2048, optimizer="adam")
        system = CPUGPUSystem(shared_hardware, casting=False)
        assert system.run_iteration(sgd).breakdown["FWD (Gather)"] == (
            system.run_iteration(adam).breakdown["FWD (Gather)"]
        )


class TestCastOverlap:
    """Section IV-B, Figure 9(b): the cast runs on the otherwise-idle GPU
    while the host gathers, so it leaves the critical path.  The strawman is
    the same record with the casting stage placed after the gradient
    download."""

    def test_strawman_is_the_same_primitives_reordered(self):
        assert sorted(p.key for p in SerialCastSystem.primitives) == sorted(
            p.key for p in OURS_CPU
        )

    @pytest.mark.parametrize("model", [RM1, RM2], ids=lambda m: m.name)
    @pytest.mark.parametrize("batch", [2048, 8192])
    def test_hiding_the_cast_shortens_the_iteration(
        self, shared_hardware, model, batch
    ):
        stats = compute_workload(model, batch)
        hidden = CPUGPUSystem(shared_hardware, casting=True).run_iteration(stats)
        exposed = SerialCastSystem(shared_hardware).run_iteration(stats)
        assert hidden.breakdown == exposed.breakdown
        assert hidden.total < exposed.total


class TestLocalityPropagation:
    def test_skew_shrinks_tcast_writes_not_reads(self, shared_hardware):
        """The casted gather-reduce reads n vectors regardless of skew; only
        its u-sized write side (and the scatter) shrink."""
        system = NMPSystem(shared_hardware, casting=True)
        random = compute_workload(RM1, 2048, dataset="random")
        skewed = compute_workload(RM1, 2048, dataset="movielens")
        assert skewed.u < random.u
        assert skewed.n == random.n
        t_random = system.run_iteration(random).breakdown[OP_BWD_TCAST]
        t_skewed = system.run_iteration(skewed).breakdown[OP_BWD_TCAST]
        assert t_skewed < t_random
        scatter_random = system.run_iteration(random).breakdown[OP_BWD_SCATTER]
        scatter_skewed = system.run_iteration(skewed).breakdown[OP_BWD_SCATTER]
        assert scatter_skewed < scatter_random

    def test_more_tables_scale_linearly(self, shared_hardware):
        """RM2 is RM1 with 4x the tables: embedding-side time ~4x."""
        system = CPUGPUSystem(shared_hardware, casting=False)
        rm1 = system.run_iteration(compute_workload(RM1, 2048))
        rm2 = system.run_iteration(compute_workload(RM2, 2048))
        gather_ratio = rm2.breakdown["FWD (Gather)"] / rm1.breakdown["FWD (Gather)"]
        assert gather_ratio == pytest.approx(4.0, rel=0.05)


class TestLinkSensitivityScope:
    def test_link_change_leaves_cpu_systems_untouched(self, shared_hardware):
        """The NMP-GPU link only exists in the memory-centric systems."""
        stats = compute_workload(RM1, 2048)
        fast_link = shared_hardware.with_nmp_link(
            Link(DEFAULT_NMP_LINK.scaled(150e9))
        )
        slow = CPUGPUSystem(shared_hardware, casting=True).run_iteration(stats)
        fast = CPUGPUSystem(fast_link, casting=True).run_iteration(stats)
        assert slow.total == pytest.approx(fast.total)

    def test_link_change_does_move_nmp_systems(self, shared_hardware):
        stats = compute_workload(RM2, 8192)
        fast_link = shared_hardware.with_nmp_link(
            Link(DEFAULT_NMP_LINK.scaled(150e9))
        )
        slow = NMPSystem(shared_hardware, casting=True).run_iteration(stats)
        fast = NMPSystem(fast_link, casting=True).run_iteration(stats)
        assert fast.total < slow.total


class TestIterationResultHelpers:
    def test_primitive_latency_sums_selected_ops(self, shared_hardware):
        stats = compute_workload(RM1, 1024)
        result = CPUGPUSystem(shared_hardware, casting=False).run_iteration(stats)
        combined = result.primitive_latency("FWD (Gather)", "BWD (Scatter)")
        assert combined == pytest.approx(
            result.breakdown["FWD (Gather)"] + result.breakdown["BWD (Scatter)"]
        )

    def test_missing_op_counts_zero(self, shared_hardware):
        stats = compute_workload(RM1, 1024)
        result = CPUGPUSystem(shared_hardware, casting=False).run_iteration(stats)
        assert result.primitive_latency("No Such Op") == 0.0

    def test_breakdown_sums_to_busy_time(self, shared_hardware):
        stats = compute_workload(RM1, 1024)
        result = NMPSystem(shared_hardware, casting=True).run_iteration(stats)
        total_busy = sum(
            result.timeline.busy_time(r) for r in result.timeline.resources()
        )
        assert sum(result.breakdown.values()) == pytest.approx(total_busy)


class TestHardwareIsolation:
    def test_custom_pool_spec_flows_through(self, shared_hardware):
        from repro.sim.nmp import NMPPoolModel
        from repro.sim.specs import NMPPoolSpec

        small_pool = SystemHardware(
            cpu=shared_hardware.cpu, gpu=shared_hardware.gpu,
            nmp=NMPPoolModel(NMPPoolSpec().with_ranks(4)),
            pcie=shared_hardware.pcie, nmp_link=shared_hardware.nmp_link,
        )
        stats = compute_workload(RM1, 2048)
        big = NMPSystem(shared_hardware, casting=True).run_iteration(stats)
        small = NMPSystem(small_pool, casting=True).run_iteration(stats)
        assert small.total > big.total

    def test_hardware_dataclass_is_replaceable(self, shared_hardware):
        clone = dataclasses.replace(shared_hardware)
        assert clone.cpu is shared_hardware.cpu
