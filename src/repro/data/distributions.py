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

Every draw is ``searchsorted(cdf, rng.random(count), "right")`` id for id,
where ``cdf`` is the sequential ``cumsum`` of :meth:`probabilities` with its
last entry set to 1.  Zipf and empirical draws find those ids through a
cached CDF and guide table (16 bytes per row).  A uniform draw keeps no
per-row array: the id is ``floor(u * N)`` unless ``u`` lies within a proven
rounding bound of a bucket edge ``k / N``, and those few draws are settled
against the CDF entry at that edge, recomputed exactly from checkpoints of
the same ``cumsum`` (8 bytes per :data:`CDF_CHECKPOINT_ROWS` rows).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from .source import non_negative_int, positive_int

__all__ = ["LookupDistribution", "UniformDistribution", "ZipfDistribution"]

#: Rows a guide-table draw walks before searching the CDF instead: Zipf 1.05
#: at 100 000 rows settles within it, a 1 000 000-row Zipf 2.0 tail bucket
#: holds 283 000 rows and would otherwise walk them one by one.
GUIDE_WALK_STEPS = 8

#: Rows per checkpoint of a uniform draw's CDF: settling a draw at a bucket
#: edge re-adds at most this many steps from the nearest checkpoint.
CDF_CHECKPOINT_ROWS = 1024


class LookupDistribution(ABC):
    """Probability model over embedding-table rows.

    Subclasses define the sorted probability vector; sampling, uniqueness
    analysis and histogram utilities are shared.
    """

    def __init__(self, num_rows: int) -> None:
        self.num_rows = positive_int("num_rows", num_rows)
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
        same generator state afterwards — found in expected linear time,
        with no sort and no binary search over the whole draw (see
        :meth:`_invert`; :class:`UniformDistribution` needs no CDF at all).
        """
        count = non_negative_int("count", count)
        if count == 0:
            return np.empty(0, dtype=np.int64)
        return self._invert(rng.random(count))

    def _invert(self, uniforms: np.ndarray) -> np.ndarray:
        """``searchsorted(cdf, uniforms, "right")`` through a guide table
        (Devroye's table-aided inversion).

        With ``K = num_rows`` equal-mass buckets, uniform ``u`` starts at
        ``guide[floor(u * K)]``, the first row its bucket can draw, and
        walks up while ``cdf[id] <= u``: at most one step on average.  The
        few ids still unsettled after ``GUIDE_WALK_STEPS`` (a steep tail
        packs thousands of rows into one bucket), or started past their row
        (``u * K`` rounded up into the next bucket), are searched directly.
        """
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
        count = non_negative_int("count", count)
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
    """Uniformly random lookups — the paper's *Random* dataset.

    A draw keeps ``num_rows / CDF_CHECKPOINT_ROWS`` checkpoints of the CDF
    and no per-row array (:meth:`_invert`).
    """

    def __init__(self, num_rows: int) -> None:
        super().__init__(num_rows)
        self._checkpoints: np.ndarray | None = None

    def _compute_probabilities(self) -> np.ndarray:
        return np.full(self.num_rows, 1.0 / self.num_rows)

    def _edge_slack(self) -> float:
        """A bound, in units of ``u * N``, on how far ``fl(u * N)`` and
        ``N * cdf[k]`` can sit from ``u * N`` and ``k + 1``.

        With ``r = 2**-53``: ``p = fl(1 / N)`` is within ``r / N`` of
        ``1 / N``, so ``(k + 1) * p`` is within ``r`` of ``(k + 1) / N``;
        each of the ``k < N`` sequential additions rounds a partial sum
        below 1 by at most ``r``; and ``fl(u * N)`` is within ``r * N`` of
        ``u * N``.  Scaled by ``N`` that is at most ``N * (N + 2) * r``,
        which ``N * (N + 1) * 2r`` covers for every ``N >= 1``.
        """
        n = self.num_rows
        return float(n * (n + 1) * np.finfo(np.float64).eps)

    def _invert(self, uniforms: np.ndarray) -> np.ndarray:
        """``searchsorted(cdf, uniforms, "right")`` without the CDF.

        ``cdf[k]`` is within the slack of ``(k + 1) / N``, so a draw whose
        ``u * N`` is farther than the slack from every integer draws
        ``floor(u * N)`` (at a million rows, all but ~0.05 % of draws).  A
        draw near integer ``e`` can only draw ``e - 1`` or ``e``, and
        ``cdf[e - 1] <= u`` says which.  Past ``~4.7e7`` rows the slack
        reaches half a bucket and the guide-table draw takes over.
        """
        n, slack = self.num_rows, self._edge_slack()
        if slack >= 0.5:
            return super()._invert(uniforms)
        scaled = uniforms * n
        ids = scaled.astype(np.int64)  # floor: u < 1 keeps it below N
        edges = np.rint(scaled)
        near = np.flatnonzero(np.abs(scaled - edges) <= slack)
        if near.size and n > 1:
            # Edge 0 draws row 0 and edge N row N - 1 (whose CDF entry is
            # set to 1): clipped to 1 and N - 1, the comparison says so.
            edge = np.clip(edges[near].astype(np.int64), 1, n - 1)
            ids[near] = edge - (self._exact_cdf(edge - 1) > uniforms[near])
        return ids

    def _exact_cdf(self, positions: np.ndarray) -> np.ndarray:
        """``cdf[positions]`` (each below ``N - 1``) bit for bit, re-adding
        ``p`` from the checkpoint before each position."""
        marks = self._checkpoints
        if marks is None:
            marks = self._checkpoints = self._build_checkpoints()
        step = 1.0 / self.num_rows
        order = np.argsort(positions, kind="stable")
        blocks, offsets = np.divmod(positions[order], CDF_CHECKPOINT_ROWS)
        starts = np.flatnonzero(np.diff(blocks, prepend=-1))
        values = np.empty(positions.size)
        for lo, hi in zip(starts, (*starts[1:], blocks.size)):
            run = np.full(int(offsets[hi - 1]) + 2, step)
            run[0] = marks[blocks[lo]]
            values[order[lo:hi]] = np.cumsum(run)[offsets[lo:hi] + 1]
        return values

    def _build_checkpoints(self) -> np.ndarray:
        """``marks[b]``: the running sum before row ``b * CDF_CHECKPOINT_ROWS``
        (0 for the first block), taken from the same sequential ``cumsum``
        ``_cumulative`` runs, a chunk of blocks at a time."""
        n, step = self.num_rows, 1.0 / self.num_rows
        num_blocks = -(-n // CDF_CHECKPOINT_ROWS)
        marks = np.empty(num_blocks)
        chunk, total = 64, 0.0
        for first in range(0, num_blocks, chunk):
            blocks = min(chunk, num_blocks - first)
            run = np.full(blocks * CDF_CHECKPOINT_ROWS + 1, step)
            run[0] = total
            sums = np.cumsum(run)
            marks[first:first + blocks] = sums[:-1:CDF_CHECKPOINT_ROWS]
            total = sums[-1]
        return marks

    def expected_unique(self, count: int) -> float:
        # Closed form avoids materializing the probability vector.
        count = non_negative_int("count", count)
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
