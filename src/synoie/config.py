"""Training configuration, serializable to/from plain JSON dicts."""

from __future__ import annotations

from dataclasses import dataclass, field, fields, asdict, replace

from .graphs import FlattenConfig
from .losses import LossWeights


@dataclass(frozen=True)
class TrainConfig:
    seed: int = 0
    d_h: int = 64
    d_l: int = 32
    lr: float = 1e-3
    epochs: int = 50
    batch_size: int = 8
    max_arg: int = 5
    dev_fraction: float = 0.1
    weights: LossWeights = field(default_factory=LossWeights)
    flatten: FlattenConfig = field(default_factory=FlattenConfig)
    use_dep: bool = True
    use_const: bool = True
    use_gcn: bool = True
    use_r1: bool = True
    use_r2: bool = True
    use_r3: bool = True
    # per-token vectors replayed in place of the window-3 encoder when set
    encoder_vectors: str | None = None
    # stop once training token accuracy reaches this level; None disables
    early_stop_train_acc: float | None = 0.9995
    eval_every: int = 1

    def __post_init__(self):
        if self.d_h <= 0 or self.d_l <= 0:
            raise ValueError("d_h and d_l must be positive")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if not 0.0 <= self.dev_fraction < 1.0:
            raise ValueError("dev_fraction must lie in [0, 1)")
        if self.max_arg < 0:
            raise ValueError("max_arg must be >= 0")

    def n_views(self) -> int:
        return 1 + int(self.use_const) + int(self.use_dep)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["flatten"]["clause_tags"] = sorted(self.flatten.clause_tags)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        d = dict(d)
        if "weights" in d:
            d["weights"] = _build(LossWeights, d["weights"])
        if "flatten" in d:
            f = dict(d["flatten"])
            if "clause_tags" in f:
                f["clause_tags"] = frozenset(f["clause_tags"])
            d["flatten"] = _build(FlattenConfig, f)
        return _build(cls, d)

    def with_overrides(self, **kwargs) -> "TrainConfig":
        return replace(self, **kwargs)


def _build(cls, d: dict):
    unknown = set(d) - {f.name for f in fields(cls)}
    if unknown:
        raise ValueError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    return cls(**d)
