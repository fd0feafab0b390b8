"""Training configuration, serializable to/from plain JSON dicts."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, asdict, replace

from .corpus import is_json_int
from .graphs import FlattenConfig
from .losses import LossWeights


def _is_number(v) -> bool:
    """A JSON number a float can hold; a bool is not one."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        float(v)
    except OverflowError:
        return False
    return True


# JSON value check per field annotation; nested objects are checked by _build
_JSON_TYPES = {
    "int": is_json_int,
    "float": _is_number,
    "bool": lambda v: isinstance(v, bool),
    "str": lambda v: isinstance(v, str),
    "str | None": lambda v: v is None or isinstance(v, str),
    "float | None": lambda v: v is None or _is_number(v),
}


@dataclass(frozen=True)
class TrainConfig:
    seed: int = 0
    d_h: int = 64
    d_l: int = 32
    lr: float = 1e-3
    epochs: int = 50
    batch_size: int = 8
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
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError("lr must be a positive finite real")
        if self.epochs < 1 or self.batch_size < 1 or self.eval_every < 1:
            raise ValueError("epochs, batch_size and eval_every must be >= 1")
        if not 0.0 <= self.dev_fraction < 1.0:
            raise ValueError("dev_fraction must lie in [0, 1)")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["flatten"]["clause_tags"] = sorted(self.flatten.clause_tags)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        """Config from a JSON object; an unknown key or a value of the wrong
        JSON type raises ValueError naming the key."""
        d = dict(_object(d, "config"))
        if "weights" in d:
            d["weights"] = _build(LossWeights, _object(d["weights"], "weights"))
        if "flatten" in d:
            f = dict(_object(d["flatten"], "flatten"))
            if "clause_tags" in f:
                tags = f["clause_tags"]
                if not (isinstance(tags, list) and all(isinstance(t, str) for t in tags)):
                    raise ValueError(f"flatten.clause_tags must be a list of "
                                     f"strings, got {tags!r}")
                f["clause_tags"] = frozenset(tags)
            d["flatten"] = _build(FlattenConfig, f)
        return _build(cls, d)

    def with_overrides(self, **kwargs) -> "TrainConfig":
        return replace(self, **kwargs)


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {value!r}")
    return value


def _build(cls, d: dict):
    types = {f.name: f.type for f in fields(cls)}
    unknown = set(d) - set(types)
    if unknown:
        raise ValueError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    for key, value in d.items():
        check = _JSON_TYPES.get(types[key])
        if check is not None and not check(value):
            raise ValueError(f"{cls.__name__} key {key!r} must be of type "
                             f"{types[key]}, got {value!r}")
    return cls(**d)
