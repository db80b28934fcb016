"""The data plane: batch sources, traces, distributions, and histograms.

Batch production is a first-class streaming subsystem: every trainer
consumes the :class:`~repro.data.source.BatchSource` protocol, with
interchangeable implementations — the learnable
:class:`~repro.data.generator.SyntheticCTRStream`, constant-memory trace
replay (:class:`~repro.data.trace.TraceReplaySource`), a Criteo-style file
reader (:class:`~repro.data.source.CriteoFileSource`), and a
stream-bounding wrapper (:class:`~repro.data.source.TakeSource`).  The
calibrated synthetic stand-ins for the paper's public datasets and the
histogram tooling that measures locality live alongside.
"""

from .datasets import DATASETS, PAPER_ORDER, DatasetProfile, dataset_names, get_dataset
from .distributions import LookupDistribution, UniformDistribution, ZipfDistribution
from .generator import (
    SyntheticCTRStream,
    generate_index_array,
    generate_table_indices,
)
from .source import (
    BatchSource,
    CTRBatch,
    CriteoFileSource,
    SourceExhausted,
    TakeSource,
    as_batch_source,
)
from .trace import (
    BatchTraceWriter,
    EmpiricalDistribution,
    TraceReplaySource,
    distribution_from_trace,
    load_trace,
    record_trace,
    save_trace,
)
from .histogram import (
    empirical_probability_function,
    gini_coefficient,
    lookup_histogram,
    sorted_probability,
    top_fraction_mass,
)

__all__ = [
    "BatchSource",
    "BatchTraceWriter",
    "CTRBatch",
    "CriteoFileSource",
    "EmpiricalDistribution",
    "DATASETS",
    "DatasetProfile",
    "LookupDistribution",
    "PAPER_ORDER",
    "SourceExhausted",
    "SyntheticCTRStream",
    "TakeSource",
    "TraceReplaySource",
    "UniformDistribution",
    "ZipfDistribution",
    "as_batch_source",
    "dataset_names",
    "distribution_from_trace",
    "load_trace",
    "record_trace",
    "save_trace",
    "empirical_probability_function",
    "generate_index_array",
    "generate_table_indices",
    "get_dataset",
    "gini_coefficient",
    "lookup_histogram",
    "sorted_probability",
    "top_fraction_mass",
]
