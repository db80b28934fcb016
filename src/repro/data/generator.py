"""Mini-batch generation: index arrays and a learnable synthetic CTR stream.

Two producers live here:

* :func:`generate_index_array` / :func:`generate_table_indices` — draw the
  sparse lookup ids a DLRM iteration consumes, with per-table popularity
  distributions supplying the locality that the paper's coalescing analysis
  depends on;
* :class:`SyntheticCTRStream` — an endless stream of (dense features, index
  arrays, click labels) whose labels come from a hidden ground-truth model,
  so end-to-end training demonstrably *learns* (used by the examples and the
  functional tests).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..core.indexing import IndexArray
from .distributions import LookupDistribution, UniformDistribution
from .source import BatchSource, CTRBatch, positive_int

__all__ = [
    "generate_index_array",
    "generate_table_indices",
    "CTRBatch",
    "SyntheticCTRStream",
]


def generate_index_array(
    distribution: LookupDistribution,
    batch: int,
    lookups_per_sample: int,
    rng: np.random.Generator,
) -> IndexArray:
    """Draw one table's ``(src, dst)`` index array for a mini-batch.

    Each of the ``batch`` samples gathers ``lookups_per_sample`` rows from
    ``distribution`` (the paper's "Gathers/table"), pooled into one output
    per sample.
    """
    batch = positive_int("batch", batch)
    lookups_per_sample = positive_int("lookups_per_sample", lookups_per_sample)
    count = batch * lookups_per_sample
    src = distribution.sample(count, rng)
    dst = np.repeat(np.arange(batch, dtype=np.int64), lookups_per_sample)
    return IndexArray(src, dst, num_rows=distribution.num_rows, num_outputs=batch)


def generate_table_indices(
    distributions: Sequence[LookupDistribution],
    batch: int,
    lookups_per_sample: int,
    rng: np.random.Generator,
) -> List[IndexArray]:
    """Draw index arrays for every table of a model (one distribution each)."""
    return [
        generate_index_array(dist, batch, lookups_per_sample, rng)
        for dist in distributions
    ]


class SyntheticCTRStream(BatchSource):
    """Learnable synthetic click-through data generator (a :class:`BatchSource`).

    Labels are Bernoulli draws from a hidden logistic model over (a) a random
    linear projection of the dense features and (b) hidden per-row scores of
    the sampled embedding ids.  Because the labels genuinely depend on the
    lookup ids, a DLRM trained on this stream must learn useful embeddings —
    its loss curve is a real (if synthetic) learning signal, standing in for
    the public datasets' click logs.

    Parameters
    ----------
    num_tables / num_rows / lookups_per_sample:
        Sparse-feature geometry; ``num_rows`` may be per-table or scalar.
    dense_features:
        Width of the continuous input.
    distributions:
        Optional per-table popularity models; uniform by default.
    seed:
        Ground-truth model seed (the *stream* order is controlled by the
        ``rng`` passed to :meth:`batches`).
    """

    def __init__(
        self,
        num_tables: int,
        num_rows: int | Sequence[int],
        lookups_per_sample: int,
        dense_features: int,
        distributions: Sequence[LookupDistribution] | None = None,
        seed: int = 0,
    ) -> None:
        if num_tables <= 0:
            raise ValueError("num_tables must be positive")
        if isinstance(num_rows, int):
            rows_per_table = [num_rows] * num_tables
        else:
            rows_per_table = [int(r) for r in num_rows]
            if len(rows_per_table) != num_tables:
                raise ValueError(
                    f"num_rows lists {len(rows_per_table)} tables, expected {num_tables}"
                )
        if distributions is None:
            distributions = [UniformDistribution(rows) for rows in rows_per_table]
        if len(distributions) != num_tables:
            raise ValueError(
                f"got {len(distributions)} distributions for {num_tables} tables"
            )
        for dist, rows in zip(distributions, rows_per_table):
            if dist.num_rows != rows:
                raise ValueError(
                    "distribution num_rows disagrees with the table geometry"
                )
        self.num_tables = num_tables
        self.rows_per_table = rows_per_table
        self.lookups_per_sample = int(lookups_per_sample)
        self.dense_features = int(dense_features)
        self.distributions = list(distributions)
        truth_rng = np.random.default_rng(seed)
        self._dense_weights = truth_rng.standard_normal(dense_features) / np.sqrt(
            dense_features
        )
        self._row_scores = [
            truth_rng.standard_normal(rows) * 0.5 for rows in rows_per_table
        ]
        self._bias = float(truth_rng.standard_normal())

    def make_batch(self, batch: int, rng: np.random.Generator) -> CTRBatch:
        """Draw one mini-batch of ``batch`` samples."""
        batch = positive_int("batch", batch)
        dense = rng.standard_normal((batch, self.dense_features))
        indices = generate_table_indices(
            self.distributions, batch, self.lookups_per_sample, rng
        )
        logits = dense @ self._dense_weights + self._bias
        for table_id, index in enumerate(indices):
            scores = self._row_scores[table_id][index.src]
            per_sample = np.zeros(batch)
            np.add.at(per_sample, index.dst, scores)
            logits = logits + per_sample / self.lookups_per_sample
        probabilities = 1.0 / (1.0 + np.exp(-logits))
        labels = (rng.random(batch) < probabilities).astype(np.float64)
        return CTRBatch(dense=dense, indices=indices, labels=labels)

    def next_batch(self, batch: int, rng: np.random.Generator) -> CTRBatch:
        """The :class:`~repro.data.source.BatchSource` surface (never exhausts)."""
        return self.make_batch(batch, rng)
