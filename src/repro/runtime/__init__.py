"""Software runtime: execution timelines, system design points, trainers.

The co-designed runtime of Section IV-B lives here — the Figure 9 overlap
of casting with forward propagation (:mod:`~repro.runtime.systems`), the
timeline machinery behind it (:mod:`~repro.runtime.timeline`), and the
**stage-graph training engine** (:mod:`~repro.runtime.engine` +
:mod:`~repro.runtime.stages`): one step loop over named stages, driven by
one :class:`SchedulePolicy` record (look-ahead, accumulation, forward-only
— :mod:`~repro.runtime.policy`), with checkpoint/resume
(:mod:`~repro.runtime.checkpoint`) and a callback protocol layered on its
hook points.  The wall-clock-instrumented :class:`FunctionalTrainer` (and
its ``lookahead=1`` alias :class:`PipelinedTrainer`) is a thin facade over
that engine.
"""

from .checkpoint import (
    CheckpointCallback,
    latest_checkpoint,
    load_checkpoint,
    restore_trainer,
    save_checkpoint,
)
from .engine import (
    CastAheadWorker,
    MetricsLogger,
    RunEvent,
    StepEvent,
    TrainingCallback,
    TrainingEngine,
)
from .pipeline import PipelinedTrainer
from .policy import SchedulePolicy
from .stages import Stage, StageTimingCollector, StepContext, build_step_stages
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
    "CastAheadWorker",
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
    "PipelinedTrainer",
    "RunEvent",
    "SchedulePolicy",
    "Stage",
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
    "build_step_stages",
    "compute_workload",
    "design_points",
    "latest_checkpoint",
    "load_checkpoint",
    "restore_trainer",
    "save_checkpoint",
]
