"""Software runtime: execution timelines, system design points, trainers.

The co-designed runtime of Section IV-B lives here — the paper's design
points as records of primitives that one scheduler places, including the
Figure 9 overlap of casting with forward propagation
(:mod:`~repro.runtime.systems`), the timeline machinery behind it (:mod:`~repro.runtime.timeline`), and the
**training engine** (:mod:`~repro.runtime.engine`): one step loop running
one step body — draw, cast, forward, backward, update — on one thread,
the step's working state and timing scope in
:mod:`~repro.runtime.stages`, and checkpoint/resume
(:mod:`~repro.runtime.checkpoint`) and a callback protocol layered on its
hook points.  The wall-clock-instrumented :class:`FunctionalTrainer` is a
thin facade over that engine.
"""

from .checkpoint import (
    CheckpointCallback,
    latest_checkpoint,
    load_checkpoint,
    restore_trainer,
    save_checkpoint,
)
from .engine import (
    MetricsLogger,
    RunEvent,
    StepEvent,
    TrainingCallback,
    TrainingEngine,
)
from .stages import StageTimingCollector, StepContext
from .systems import (
    CPUGPUSystem,
    CPUOnlySystem,
    IterationResult,
    NMPSystem,
    OP_BWD_ACCU,
    OP_BWD_DNN,
    OP_BWD_EXPAND,
    OP_BWD_SCATTER,
    OP_BWD_SORT,
    OP_BWD_TCAST,
    OP_CAST_XFER,
    OP_CASTING,
    OP_EXCHANGE,
    OP_FWD_DNN,
    OP_FWD_GATHER,
    ShardedNMPSystem,
    SystemHardware,
    TrainingSystem,
    WorkloadStats,
    compute_workload,
    design_points,
)
from .timeline import (
    RESOURCE_CPU,
    RESOURCE_GPU,
    RESOURCE_LINK,
    RESOURCE_NMP,
    RESOURCE_PCIE,
    Span,
    Timeline,
)
from .trainer import (
    FunctionalTrainer,
    InferenceReport,
    PhaseTimings,
    TrainingReport,
)

__all__ = [
    "CPUGPUSystem",
    "CPUOnlySystem",
    "CheckpointCallback",
    "FunctionalTrainer",
    "InferenceReport",
    "IterationResult",
    "MetricsLogger",
    "NMPSystem",
    "OP_BWD_ACCU",
    "OP_BWD_DNN",
    "OP_BWD_EXPAND",
    "OP_BWD_SCATTER",
    "OP_BWD_SORT",
    "OP_BWD_TCAST",
    "OP_CASTING",
    "OP_CAST_XFER",
    "OP_EXCHANGE",
    "OP_FWD_DNN",
    "OP_FWD_GATHER",
    "PhaseTimings",
    "RunEvent",
    "StageTimingCollector",
    "StepContext",
    "StepEvent",
    "RESOURCE_CPU",
    "RESOURCE_GPU",
    "RESOURCE_LINK",
    "RESOURCE_NMP",
    "RESOURCE_PCIE",
    "ShardedNMPSystem",
    "Span",
    "SystemHardware",
    "Timeline",
    "TrainingCallback",
    "TrainingEngine",
    "TrainingReport",
    "TrainingSystem",
    "WorkloadStats",
    "compute_workload",
    "design_points",
    "latest_checkpoint",
    "load_checkpoint",
    "restore_trainer",
    "save_checkpoint",
]
