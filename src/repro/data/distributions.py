"""Embedding-lookup popularity distributions (Section III-B, Figure 5(a)).

The paper derives, per public dataset, "the probability function of each
embedding table entry's likelihood of potential lookups" from a sorted lookup
histogram, then drives every locality-sensitive experiment from it.  We model
those probability functions directly:

* :class:`UniformDistribution` — the paper's *Random* control, a uniform
  likelihood over all rows;
* :class:`ZipfDistribution` — a shifted power law
  ``p(rank) ~ 1 / (rank + shift)^exponent``, the standard model for item
  popularity in recommendation datasets; per-dataset parameters are
  calibrated in :mod:`repro.data.datasets`.

The analytic :meth:`LookupDistribution.expected_unique` is the workhorse of
the performance model — it converts "``n`` lookups against this table" into
the expected coalesced-row count ``u`` that sizes gradient coalescing and
scatter (Figure 5(b)).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

__all__ = ["LookupDistribution", "UniformDistribution", "ZipfDistribution"]

#: Rows a guide-table draw walks before searching the CDF instead: Zipf 1.05
#: at 100 000 rows settles within it, a 1 000 000-row Zipf 2.0 tail bucket
#: holds 283 000 rows and would otherwise walk them one by one.
GUIDE_WALK_STEPS = 8


class LookupDistribution(ABC):
    """Probability model over embedding-table rows.

    Subclasses define the sorted probability vector; sampling, uniqueness
    analysis and histogram utilities are shared.
    """

    def __init__(self, num_rows: int) -> None:
        if num_rows <= 0:
            raise ValueError(f"num_rows must be positive, got {num_rows}")
        self.num_rows = int(num_rows)
        self._probabilities: np.ndarray | None = None
        self._cdf: np.ndarray | None = None
        self._guide: np.ndarray | None = None

    @abstractmethod
    def _compute_probabilities(self) -> np.ndarray:
        """Return the probability of each rank, descending, summing to 1."""

    def probabilities(self) -> np.ndarray:
        """Sorted (descending) lookup probability per table entry.

        This is exactly the function plotted in Figure 5(a): entry 0 is the
        most popular row.  Computed once and cached.
        """
        if self._probabilities is None:
            self._probabilities = self._checked_probabilities()
        return self._probabilities

    def _checked_probabilities(self) -> np.ndarray:
        probs = self._compute_probabilities()
        if probs.shape != (self.num_rows,):
            raise AssertionError("probability vector has wrong shape")
        return probs

    def _cumulative(self) -> np.ndarray:
        # Sampling keeps only the CDF and the guide table: the probability
        # vector it sums is dropped, not cached (8 bytes per row).
        if self._cdf is None:
            cdf = np.cumsum(self._checked_probabilities())
            cdf[-1] = 1.0  # guard against float drift at the tail
            self._cdf = cdf
        return self._cdf

    def _guide_table(self) -> np.ndarray:
        """``guide[k]``: the id that uniform ``k / num_rows`` draws."""
        if self._guide is None:
            grid = np.arange(self.num_rows) / self.num_rows
            guide = np.searchsorted(self._cumulative(), grid, side="right")
            self._guide = guide.astype(np.int64, copy=False)
        return self._guide

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``count`` lookup ids (popularity ranks) i.i.d.

        Ids are popularity ranks: id 0 is the hottest row.  Real tables
        scatter hot rows across the physical address space; apply
        :meth:`rank_permutation` before address-mapping when physical layout
        matters (the DRAM simulator does).

        Inverse-CDF sampling: each id is ``searchsorted(cdf,
        rng.random(count), "right")`` exactly — the same int64 ids, and the
        same generator state afterwards — found in expected linear time
        through a guide table (Devroye's table-aided inversion).  With
        ``K = num_rows`` equal-mass buckets, uniform ``u`` starts at
        ``guide[floor(u * K)]``, the first row its bucket can draw, and
        walks up while ``cdf[id] <= u``: at most one step on average.  No
        sort and no binary search over the whole draw.  The few ids still
        unsettled after ``GUIDE_WALK_STEPS`` (a steep tail packs thousands
        of rows into one bucket), or started past their row (``u * K``
        rounded up into the next bucket), are searched directly.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if count == 0:
            return np.empty(0, dtype=np.int64)
        uniforms = rng.random(count)
        cdf = self._cumulative()
        # u < 1 keeps the rounded product below num_rows, so the index fits.
        ids = self._guide_table()[(uniforms * self.num_rows).astype(np.int64)]
        overshot = np.flatnonzero((ids > 0) & (cdf[ids - 1] > uniforms))
        walking = np.flatnonzero(cdf[ids] <= uniforms)
        for _ in range(GUIDE_WALK_STEPS):
            if not walking.size:
                break
            ids[walking] += 1
            walking = walking[cdf[ids[walking]] <= uniforms[walking]]
        unsettled = np.concatenate((overshot, walking))
        if unsettled.size:
            ids[unsettled] = np.searchsorted(cdf, uniforms[unsettled], side="right")
        return ids

    def rank_permutation(self, rng: np.random.Generator) -> np.ndarray:
        """A fixed pseudo-random rank-to-physical-row mapping."""
        return rng.permutation(self.num_rows).astype(np.int64)

    def expected_unique(self, count: int) -> float:
        """Expected number of distinct rows among ``count`` i.i.d. lookups.

        ``E[u] = sum_i (1 - (1 - p_i)^n)``, evaluated stably in log space.
        This is the ``u`` every traffic/latency model consumes; using the
        expectation (rather than a sampled draw) keeps experiment outputs
        deterministic.
        """
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if count == 0:
            return 0.0
        probs = self.probabilities()
        return float(np.sum(-np.expm1(count * np.log1p(-np.minimum(probs, 1.0 - 1e-15)))))

    def expected_coalescing_ratio(self, count: int) -> float:
        """Expected ``u / n`` — how little the batch coalesces (1.0 = none)."""
        if count == 0:
            return 1.0
        return self.expected_unique(count) / count

    def top_mass(self, fraction: float) -> float:
        """Probability mass captured by the hottest ``fraction`` of rows.

        Quantifies Figure 5(a)'s observation that "a subset of table entries
        exhibit high access frequencies".
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must lie in (0, 1], got {fraction}")
        top_rows = max(1, int(round(fraction * self.num_rows)))
        return float(self.probabilities()[:top_rows].sum())


class UniformDistribution(LookupDistribution):
    """Uniformly random lookups — the paper's *Random* dataset."""

    def _compute_probabilities(self) -> np.ndarray:
        return np.full(self.num_rows, 1.0 / self.num_rows)

    def expected_unique(self, count: int) -> float:
        # Closed form avoids materializing the probability vector.
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        if count == 0:
            return 0.0
        return float(
            self.num_rows * -np.expm1(count * np.log1p(-1.0 / self.num_rows))
        )

    def __repr__(self) -> str:
        return f"UniformDistribution(num_rows={self.num_rows})"


class ZipfDistribution(LookupDistribution):
    """Shifted Zipf (Zipf-Mandelbrot) popularity: ``p(r) ~ (r + shift)^-s``.

    Parameters
    ----------
    num_rows:
        Catalog size (distinct ids of the modelled table).
    exponent:
        Skew ``s``; larger concentrates mass on the head.  Recommendation
        datasets typically measure ``0.6 <= s <= 1.3``.
    shift:
        Mandelbrot flattening of the extreme head; ``shift > 0`` keeps the
        top handful of items from dominating unrealistically.
    """

    def __init__(self, num_rows: int, exponent: float, shift: float = 2.0) -> None:
        super().__init__(num_rows)
        if exponent <= 0:
            raise ValueError(f"exponent must be positive, got {exponent}")
        if shift < 0:
            raise ValueError(f"shift must be non-negative, got {shift}")
        self.exponent = float(exponent)
        self.shift = float(shift)

    def _compute_probabilities(self) -> np.ndarray:
        ranks = np.arange(1, self.num_rows + 1, dtype=np.float64)
        weights = (ranks + self.shift) ** (-self.exponent)
        return weights / weights.sum()

    def __repr__(self) -> str:
        return (
            f"ZipfDistribution(num_rows={self.num_rows}, "
            f"exponent={self.exponent}, shift={self.shift})"
        )
