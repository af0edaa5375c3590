"""Pipeline configuration: JSON files with full defaulting.

A minimal config is {"train": ..., "dict": ..., "test": ...}; every other
field has a default. The dataclasses below are the one definition of every
key, its type and its default: ``config_from_dict`` reads them from the
fields and their type hints. Unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Any, get_args, get_type_hints

from .corpus import DEFAULT_MAX_SENTENCE_LEN
from .curriculum import SelfTrainConfig, StageSchedule
from .errors import FormatError
from .model import ModelConfig
from .risk import ConfMpuConfig
from .voters import VoterConfig

MODES = ("full", "full-st", "no-curriculum", "no-confmpu", "voter-ensemble", "soft-label-curriculum")


@dataclass(frozen=True)
class ModelSettings:
    """Architecture knobs; vocabulary size and class count come from data."""

    embed_dim: int = ModelConfig.embed_dim
    window: int = ModelConfig.window
    hidden_dim: int = ModelConfig.hidden_dim
    init_scale: float = ModelConfig.init_scale
    min_count: int = 1
    max_sentence_len: int = DEFAULT_MAX_SENTENCE_LEN

    def __post_init__(self) -> None:
        for key in ("min_count", "max_sentence_len"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1, got {getattr(self, key)}")
        self.model_config(vocab_size=1, n_classes=2)  # ModelConfig checks the other fields

    def model_config(self, vocab_size: int, n_classes: int) -> ModelConfig:
        """The classifier architecture these settings describe."""
        return ModelConfig(vocab_size, n_classes, self.embed_dim, self.window, self.hidden_dim, self.init_scale)


@dataclass(frozen=True)
class CurriculumSettings:
    tau: float = 0.5
    eta: int = 5
    stage_epochs: int = StageSchedule.stage_epochs
    learning_rate: float = StageSchedule.learning_rate
    batch_size: int = StageSchedule.batch_size

    def __post_init__(self) -> None:
        if not 0.0 < self.tau < 1.0:
            raise ValueError(f"tau must be in (0, 1), got {self.tau}")
        if self.eta < 1:
            raise ValueError(f"eta must be >= 1, got {self.eta}")
        self.schedule(ConfMpuConfig())  # StageSchedule checks the other fields

    def schedule(self, conf_mpu: ConfMpuConfig) -> StageSchedule:
        """The stage schedule these settings describe, with risk ``conf_mpu``."""
        return StageSchedule(self.stage_epochs, self.learning_rate, self.batch_size, conf_mpu)


@dataclass(frozen=True)
class PipelineConfig:
    train: str
    dict_path: str | None = field(default=None, metadata={"key": "dict"})
    test: str | None = None
    valid: str | None = None
    out: str = "out"
    mode: str = "full"
    seed: int = 42
    threads: int = 1
    allow_same_split: bool = False
    require_type_match: bool = True
    model: ModelSettings = field(default_factory=ModelSettings)
    voters: VoterConfig = field(default_factory=VoterConfig)
    curriculum: CurriculumSettings = field(default_factory=CurriculumSettings)
    risk: ConfMpuConfig = field(default_factory=ConfMpuConfig)
    self_train: SelfTrainConfig = field(default_factory=SelfTrainConfig)

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise FormatError(f"unknown mode {self.mode!r}; choose from {', '.join(MODES)}")
        if self.threads < 1:
            raise FormatError("threads must be >= 1")

    def schedule(self) -> StageSchedule:
        return self.curriculum.schedule(self.risk)

    def snapshot(self) -> dict:
        """JSON-ready dict of the fully-defaulted configuration."""
        return asdict(self)

    def with_overrides(self, **kwargs: Any) -> "PipelineConfig":
        return replace(self, **{k: v for k, v in kwargs.items() if v is not None})


_JSON_NAMES = {bool: "boolean", int: "integer", float: "number", str: "string"}


def _typed(value: Any, key: str, kind: Any, where: str) -> Any:
    """``value`` if it is a JSON value of ``kind``, else FormatError.
    Nothing is coerced: a JSON boolean is not an integer, and only a float
    field also takes an integer, and never NaN or an infinity (which Python's
    ``json`` reads). A ``Literal`` of strings is a string, and ``str | None``
    also takes null."""
    if value is None and type(None) in get_args(kind):
        return None
    kind = str if get_args(kind) else kind  # a Literal of strings, or str | None
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise FormatError(f"{where} {key!r} must be a JSON {_JSON_NAMES[kind]}, got {value!r}")
    if kind is float and not math.isfinite(value):
        raise FormatError(f"{where} {key!r} must be a finite number, got {value!r}")
    return value


def _from_json(cls: type, raw: dict, section: str | None = None) -> Any:
    """The config dataclass ``cls`` from the JSON object ``raw``, which has
    one key per field: the field's name, or its ``key`` metadata. A missing
    key takes the field's default; a field whose type is a dataclass is a
    section, read the same way."""
    if not isinstance(raw, dict):
        raise FormatError(f"config section {section!r} must be an object" if section else "config must be a JSON object")
    by_key = {f.metadata.get("key", f.name): f for f in fields(cls)}
    unknown = ", ".join(sorted(set(raw) - set(by_key)))
    if unknown:
        raise FormatError(
            f"unknown keys in config section {section!r}: {unknown}" if section else f"unknown config keys: {unknown}"
        )
    where = f"config section {section!r} key" if section else "config key"
    hints = get_type_hints(cls)
    values: dict[str, Any] = {}
    for key, f in by_key.items():
        kind = hints[f.name]
        if key not in raw:
            if f.default is MISSING and f.default_factory is MISSING:
                raise FormatError(f"config needs a {key!r} corpus path")
        elif is_dataclass(kind):
            values[f.name] = _from_json(kind, raw[key], key)
        else:
            values[f.name] = _typed(raw[key], key, kind, where)
    try:
        return cls(**values)
    except ValueError as exc:
        raise FormatError(f"bad config section {section!r}: {exc}" if section else f"bad config value: {exc}") from exc


def config_from_dict(raw: dict) -> PipelineConfig:
    return _from_json(PipelineConfig, raw)


def load_config(path: str | Path) -> PipelineConfig:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FormatError(f"config {path} is not valid JSON: {exc}") from exc
    except OSError as exc:
        raise FormatError(f"cannot read config {path}: {exc}") from exc
    return config_from_dict(raw)
