"""Recommendation-model configurations — Table II of the paper.

The paper studies four DLRM configurations: RM1/RM2 are embedding-intensive
(80 gathers per table) while RM3/RM4 are MLP-intensive (20 gathers per table,
much wider MLPs).  RM1-3 follow Gupta et al. (DeepRecSys); RM4 stacks an
extra top-MLP layer and widens everything.

Width-list convention (documented here because Table II is terse):

* ``bottom_mlp`` lists *every* layer width including the dense-feature input
  and the output — e.g. RM1's ``(256, 128, 64)`` takes 256 continuous
  features to a 64-wide vector matching the embedding dimension;
* ``top_mlp`` lists the hidden widths plus the final ``1``-logit output; its
  input width is the interaction output, which depends on table count,
  embedding dimension and interaction kind, so it cannot be a constant of
  the config.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Tuple

from .interaction import interaction_output_dim

__all__ = ["ModelConfig", "RM1", "RM2", "RM3", "RM4", "ALL_MODELS", "get_model"]

#: The paper's nominal embedding vector width (Section V, following DLRM).
DEFAULT_EMBEDDING_DIM = 64

#: Rows per synthetic embedding table; DLRM's open-source default scale.
DEFAULT_ROWS_PER_TABLE = 1_000_000


@dataclass(frozen=True)
class ModelConfig:
    """One Table II row plus the geometry the experiments need.

    Attributes
    ----------
    name:
        ``"RM1"`` .. ``"RM4"``.
    num_tables:
        Number of embedding tables.
    gathers_per_table:
        Lookups per table per sample (the paper's "Gathers/table").
    bottom_mlp:
        Full width list of the bottom MLP (input ... output).
    top_mlp:
        Hidden widths plus the final logit of the top MLP.
    embedding_dim:
        Embedding vector width; must match the bottom MLP output.
    rows_per_table:
        Table height used when instantiating/simulating tables.
    interaction:
        ``"cat"`` or ``"dot"`` feature combiner.
    embedding_intensive:
        The paper's classification (RM1/RM2 true, RM3/RM4 false).
    """

    name: str
    num_tables: int
    gathers_per_table: int
    bottom_mlp: Tuple[int, ...]
    top_mlp: Tuple[int, ...]
    embedding_dim: int = DEFAULT_EMBEDDING_DIM
    rows_per_table: int = DEFAULT_ROWS_PER_TABLE
    interaction: str = "cat"
    embedding_intensive: bool = field(default=True)

    def __post_init__(self) -> None:
        if self.num_tables <= 0 or self.gathers_per_table <= 0:
            raise ValueError("num_tables and gathers_per_table must be positive")
        if len(self.bottom_mlp) < 2 or len(self.top_mlp) < 1:
            raise ValueError("MLP width lists are too short")
        if self.top_mlp[-1] != 1:
            raise ValueError("top MLP must end in a single logit")
        if self.bottom_mlp[-1] != self.embedding_dim:
            raise ValueError(
                "bottom MLP output must equal embedding_dim so features can interact"
            )

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @property
    def dense_features(self) -> int:
        """Width of the continuous-feature input (bottom MLP input)."""
        return self.bottom_mlp[0]

    def lookups_per_sample(self) -> int:
        """Total embedding gathers per sample across all tables."""
        return self.num_tables * self.gathers_per_table

    def total_lookups(self, batch: int) -> int:
        """Total gathers ``n`` in a mini-batch (per iteration)."""
        return batch * self.lookups_per_sample()

    def interaction_dim(self) -> int:
        """Width of the interaction output feeding the top MLP."""
        return interaction_output_dim(
            self.interaction, self.num_tables, self.embedding_dim
        )

    def top_mlp_sizes(self) -> Tuple[int, ...]:
        """Complete top-MLP width list including its interaction input."""
        return (self.interaction_dim(), *self.top_mlp)

    def embedding_bytes(self, itemsize: int = 4) -> int:
        """Aggregate embedding-table footprint."""
        return self.num_tables * self.rows_per_table * self.embedding_dim * itemsize

    # ------------------------------------------------------------------
    # Compute accounting (consumed by the roofline models)
    # ------------------------------------------------------------------
    def mlp_forward_flops(self, batch: int) -> int:
        """Forward FLOPs of both MLPs plus the interaction for one batch."""
        flops = 0
        widths = self.bottom_mlp
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            flops += 2 * batch * fan_in * fan_out
        widths = self.top_mlp_sizes()
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            flops += 2 * batch * fan_in * fan_out
        if self.interaction == "dot":
            num_features = self.num_tables + 1
            flops += 2 * batch * num_features * num_features * self.embedding_dim
        return flops

    def mlp_backward_flops(self, batch: int) -> int:
        """Backward FLOPs of the GEMMs that run: weight-gradient and
        input-gradient GEMMs (2x forward), less the bottom MLP's first
        input gradient, which :class:`~repro.model.dlrm.DLRM` never forms
        because that layer's input is data."""
        data_input_grad = 2 * batch * self.bottom_mlp[0] * self.bottom_mlp[1]
        return 2 * self.mlp_forward_flops(batch) - data_input_grad

    def with_overrides(self, **kwargs: object) -> "ModelConfig":
        """Config with fields replaced — used by the sensitivity sweeps.

        Changing ``embedding_dim`` transparently rewrites the bottom MLP's
        final width so the invariant ``bottom_mlp[-1] == embedding_dim``
        holds, mirroring how the paper re-dimensions models in Figure 17.
        """
        if "embedding_dim" in kwargs and "bottom_mlp" not in kwargs:
            dim = kwargs["embedding_dim"]
            kwargs["bottom_mlp"] = (*self.bottom_mlp[:-1], dim)
        return replace(self, **kwargs)


RM1 = ModelConfig(
    name="RM1",
    num_tables=10,
    gathers_per_table=80,
    bottom_mlp=(256, 128, 64),
    top_mlp=(256, 64, 1),
    embedding_intensive=True,
)

RM2 = ModelConfig(
    name="RM2",
    num_tables=40,
    gathers_per_table=80,
    bottom_mlp=(256, 128, 64),
    top_mlp=(512, 128, 1),
    embedding_intensive=True,
)

RM3 = ModelConfig(
    name="RM3",
    num_tables=10,
    gathers_per_table=20,
    bottom_mlp=(2560, 512, 64),
    top_mlp=(512, 128, 1),
    embedding_intensive=False,
)

RM4 = ModelConfig(
    name="RM4",
    num_tables=10,
    gathers_per_table=20,
    bottom_mlp=(2560, 1024, 64),
    top_mlp=(2048, 2048, 1024, 1),
    embedding_intensive=False,
)

ALL_MODELS: Tuple[ModelConfig, ...] = (RM1, RM2, RM3, RM4)


def get_model(name: str) -> ModelConfig:
    """Look up a Table II configuration by name (case-insensitive)."""
    for config in ALL_MODELS:
        if config.name.lower() == name.lower():
            return config
    raise KeyError(f"unknown model {name!r}; expected one of "
                   f"{[c.name for c in ALL_MODELS]}")
