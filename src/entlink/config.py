"""Pipeline configuration shared by training, decoding and the CLI."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields

from .kb_store import FormatVersionError

# Training-only defaults. They shape the weights but are not saved with the
# model, so they stay out of PipelineConfig.
BLACKLIST_THRESHOLD = 0.05  # PMI ignores categories on more than this share of gold entities
TOL = 1e-6                  # converged once every gradient component is at most this
MAX_ITER = 500              # most L-BFGS iterations


@dataclass(frozen=True)
class PipelineConfig:
    """Tuning knobs for the whole pipeline, with their established defaults.
    An out-of-range value raises ValueError when the config is made."""

    max_candidates: int = 40     # per-mention candidate cap at retrieval
    sigma: float = 0.5           # L2 regularization strength
    gap: int = 4                 # max tokens between mentions in one component
    context_window: int = 100    # total tokens around a mention, half per side
    top_n: int = 200             # size of the top-terms page vector

    def __post_init__(self) -> None:
        if not 0 < self.sigma < math.inf:
            raise ValueError("sigma must be positive and finite")
        if self.max_candidates < 1:
            raise ValueError("max_candidates must be >= 1")
        if self.gap < 0:
            raise ValueError("gap must be >= 0")
        if self.context_window < 2 or self.context_window % 2 != 0:
            raise ValueError("context_window must be a positive even number")
        if self.top_n < 1:
            raise ValueError("top_n must be >= 1")

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(data: dict) -> "PipelineConfig":
        """Config from a saved dict. A missing, unknown or mistyped key
        raises FormatVersionError; an out-of-range value, ValueError."""
        if not isinstance(data, dict):
            raise FormatVersionError("config must be a JSON object")
        types = {f.name: f.type for f in fields(PipelineConfig)}
        if set(data) != set(types):
            raise FormatVersionError(
                f"config keys {sorted(data)} do not match {sorted(types)}"
            )
        for name, value in data.items():
            allowed = (int, float) if types[name] == "float" else (int,)
            if isinstance(value, bool) or not isinstance(value, allowed):
                raise FormatVersionError(f"config {name!r} has the wrong type: {value!r}")
        return PipelineConfig(**data)
