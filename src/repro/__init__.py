"""Tensor Casting — full reproduction of Kwon, Lee & Rhu (HPCA 2021).

An algorithm-architecture co-design for personalized-recommendation
*training*: the gradient expand-coalesce bottleneck of embedding-layer
backpropagation is "casted" into a tensor gather-reduce (Algorithms 2-3),
enabling both a software-only speedup on CPU-GPU systems and a generic
near-memory gather-scatter accelerator that covers every key training
primitive.

Package tour
------------
* :mod:`repro.core` — index arrays, the gather-reduce/scatter kernels (one
  NumPy implementation each, next to its pure-Python oracle), the baseline
  expand-coalesce pipeline, Tensor Casting itself, and analytic
  memory-traffic models;
* :mod:`repro.model` — a from-scratch NumPy DLRM (MLPs, embedding bags with
  both backward strategies, interactions, losses, optimizers) plus the
  Table II configurations;
* :mod:`repro.data` — the streaming batch data plane: the ``BatchSource``
  protocol with synthetic generation, constant-memory trace replay, a
  Criteo-style file reader, and composable wrappers (prefetch, stream
  bounding), plus calibrated dataset profiles and histogram tooling;
* :mod:`repro.sim` — cycle-level DDR4 simulation, CPU/GPU/NMP device models,
  interconnects and energy accounting;
* :mod:`repro.runtime` — execution timelines, the four system design points,
  and a wall-clock-instrumented functional trainer whose ``lookahead=1``
  executes the Section IV-B cast-ahead overlap and whose ``infer()`` runs
  the same step forward-only, parameters frozen;
* :mod:`repro.obs` — spans, metrics and Perfetto export for a training
  run, over an injectable clock (:mod:`repro.obs.clock`);
* :mod:`repro.experiments` — one harness per table/figure of the evaluation.

Quickstart
----------
>>> import numpy as np
>>> from repro import IndexArray, tensor_casting, casted_gather_reduce
>>> index = IndexArray(src=[1, 2, 4, 0, 2], dst=[0, 0, 0, 1, 1], num_rows=6)
>>> cast = tensor_casting(index)            # Algorithm 2
>>> grads = np.ones((2, 4))                 # B=2 backpropagated gradients
>>> rows, coalesced = casted_gather_reduce(grads, cast)   # Algorithm 3
>>> rows.tolist()                           # scatter targets
[0, 1, 2, 4]
"""

from .core import (
    CastedIndex,
    IndexArray,
    Traffic,
    casted_gather_reduce,
    casting_reduction_factor,
    expand_coalesce,
    gather_reduce,
    gradient_coalesce,
    gradient_expand,
    make_partition,
    sharded_exchange_bytes,
    tcasted_grad_gather_reduce,
    tensor_casting,
)
from .data import (
    BatchSource,
    CTRBatch,
    CriteoFileSource,
    DATASETS,
    PrefetchingSource,
    SourceExhausted,
    SyntheticCTRStream,
    TraceReplaySource,
    UniformDistribution,
    ZipfDistribution,
    generate_index_array,
    get_dataset,
    load_trace,
    record_trace,
    save_trace,
)
from .model import (
    ALL_MODELS,
    Adagrad,
    Adam,
    DLRM,
    EmbeddingBag,
    HotRowCache,
    MLP,
    ModelConfig,
    Momentum,
    RMSprop,
    SGD,
    SparseGradient,
    bce_with_logits,
    get_model,
    make_optimizer,
)
from .runtime import (
    CPUGPUSystem,
    CPUOnlySystem,
    CheckpointCallback,
    FunctionalTrainer,
    MetricsLogger,
    NMPSystem,
    ShardedNMPSystem,
    SystemHardware,
    Timeline,
    TrainingCallback,
    TrainingEngine,
    WorkloadStats,
    compute_workload,
    design_points,
    latest_checkpoint,
    restore_trainer,
    save_checkpoint,
)
from .sim import (
    AllToAll,
    CPUModel,
    DDR4_2400,
    DDR4_3200,
    DRAMChannel,
    EnergyModel,
    GPUModel,
    Link,
    NMPPoolModel,
    TABLE_I_POOL,
)

__version__ = "1.0.0"

__all__ = [
    "ALL_MODELS",
    "Adagrad",
    "Adam",
    "AllToAll",
    "BatchSource",
    "CPUGPUSystem",
    "CPUModel",
    "CPUOnlySystem",
    "CTRBatch",
    "CastedIndex",
    "CheckpointCallback",
    "CriteoFileSource",
    "DATASETS",
    "DDR4_2400",
    "DDR4_3200",
    "DLRM",
    "DRAMChannel",
    "EmbeddingBag",
    "EnergyModel",
    "FunctionalTrainer",
    "GPUModel",
    "HotRowCache",
    "IndexArray",
    "Link",
    "MetricsLogger",
    "MLP",
    "ModelConfig",
    "Momentum",
    "NMPPoolModel",
    "NMPSystem",
    "PrefetchingSource",
    "RMSprop",
    "SGD",
    "ShardedNMPSystem",
    "SourceExhausted",
    "SparseGradient",
    "SyntheticCTRStream",
    "SystemHardware",
    "TABLE_I_POOL",
    "Timeline",
    "TrainingCallback",
    "TrainingEngine",
    "TraceReplaySource",
    "Traffic",
    "UniformDistribution",
    "WorkloadStats",
    "ZipfDistribution",
    "bce_with_logits",
    "casted_gather_reduce",
    "casting_reduction_factor",
    "compute_workload",
    "design_points",
    "latest_checkpoint",
    "expand_coalesce",
    "gather_reduce",
    "generate_index_array",
    "get_dataset",
    "get_model",
    "gradient_coalesce",
    "gradient_expand",
    "load_trace",
    "make_optimizer",
    "make_partition",
    "record_trace",
    "restore_trainer",
    "save_checkpoint",
    "save_trace",
    "sharded_exchange_bytes",
    "tcasted_grad_gather_reduce",
    "tensor_casting",
    "__version__",
]
