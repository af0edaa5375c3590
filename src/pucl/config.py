"""Pipeline configuration: JSON files with full defaulting.

A minimal config is {"train": ..., "dict": ..., "test": ...}; every other
field has a default. Unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any, get_args, get_type_hints

from .curriculum import SelfTrainConfig, StageSchedule
from .errors import FormatError
from .model import ModelConfig
from .risk import ConfMpuConfig
from .voters import VoterConfig

MODES = ("full", "full-st", "no-curriculum", "no-confmpu", "voter-ensemble", "soft-label-curriculum")


@dataclass(frozen=True)
class ModelSettings:
    """Architecture knobs; vocabulary size and class count come from data."""

    embed_dim: int = 32
    window: int = 2
    hidden_dim: int = 64
    init_scale: float = 0.1
    min_count: int = 1
    max_sentence_len: int = 256

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
    stage_epochs: int = 2
    learning_rate: float = 1e-3
    batch_size: int = 32

    def __post_init__(self) -> None:
        # The other fields are checked by the StageSchedule they build.
        if not 0.0 < self.tau < 1.0:
            raise ValueError(f"tau must be in (0, 1), got {self.tau}")
        if self.eta < 1:
            raise ValueError(f"eta must be >= 1, got {self.eta}")


@dataclass(frozen=True)
class PipelineConfig:
    train: str
    dict_path: str | None = None
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
        try:
            self.schedule()
        except ValueError as exc:
            raise FormatError(f"bad config section 'curriculum': {exc}") from exc

    def schedule(self) -> StageSchedule:
        return StageSchedule(
            stage_epochs=self.curriculum.stage_epochs,
            learning_rate=self.curriculum.learning_rate,
            batch_size=self.curriculum.batch_size,
            conf_mpu=self.risk,
        )

    def snapshot(self) -> dict:
        """JSON-ready dict of the fully-defaulted configuration."""
        return asdict(self)

    def with_overrides(self, **kwargs: Any) -> "PipelineConfig":
        return replace(self, **{k: v for k, v in kwargs.items() if v is not None})


_SECTION_TYPES = {
    "model": ModelSettings,
    "voters": VoterConfig,
    "curriculum": CurriculumSettings,
    "risk": ConfMpuConfig,
    "self_train": SelfTrainConfig,
}

_TOP_LEVEL_KEYS = {
    "train", "dict", "test", "valid", "out", "mode", "seed", "threads", "allow_same_split", "require_type_match",
} | set(_SECTION_TYPES)


_JSON_NAMES = {bool: "boolean", int: "integer", float: "number", str: "string"}


def _typed(raw: dict, key: str, kind: Any, default: Any, where: str = "config key") -> Any:
    """``raw[key]`` if it is a JSON value of ``kind``, else FormatError.
    Nothing is coerced: a JSON boolean is not an integer, and only a float
    field also takes an integer, and never NaN or an infinity (which Python's
    ``json`` reads). A ``Literal`` of strings is a string, and ``str | None``
    also takes null."""
    value = raw.get(key, default)
    if value is None and type(None) in get_args(kind):
        return None
    kind = str if get_args(kind) else kind  # a Literal of strings, or str | None
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise FormatError(f"{where} {key!r} must be a JSON {_JSON_NAMES[kind]}, got {value!r}")
    if kind is float and not math.isfinite(value):
        raise FormatError(f"{where} {key!r} must be a finite number, got {value!r}")
    return value


def config_from_dict(raw: dict) -> PipelineConfig:
    if not isinstance(raw, dict):
        raise FormatError("config must be a JSON object")
    unknown = set(raw) - _TOP_LEVEL_KEYS
    if unknown:
        raise FormatError(f"unknown config keys: {', '.join(sorted(unknown))}")
    if "train" not in raw:
        raise FormatError("config needs a 'train' corpus path")

    sections: dict[str, Any] = {}
    for name, cls in _SECTION_TYPES.items():
        body = raw.get(name, {})
        if not isinstance(body, dict):
            raise FormatError(f"config section {name!r} must be an object")
        valid_keys = {f for f in cls.__dataclass_fields__}  # type: ignore[attr-defined]
        unknown = set(body) - valid_keys
        if unknown:
            raise FormatError(f"unknown keys in config section {name!r}: {', '.join(sorted(unknown))}")
        types = get_type_hints(cls)
        fields = {key: _typed(body, key, types[key], None, f"config section {name!r} key") for key in body}
        try:
            sections[name] = cls(**fields)
        except (TypeError, ValueError) as exc:
            raise FormatError(f"bad config section {name!r}: {exc}") from exc

    try:
        return PipelineConfig(
            train=_typed(raw, "train", str, None),
            dict_path=_typed(raw, "dict", str | None, None),
            test=_typed(raw, "test", str | None, None),
            valid=_typed(raw, "valid", str | None, None),
            out=_typed(raw, "out", str, "out"),
            mode=raw.get("mode", "full"),
            seed=_typed(raw, "seed", int, 42),
            threads=_typed(raw, "threads", int, 1),
            allow_same_split=_typed(raw, "allow_same_split", bool, False),
            require_type_match=_typed(raw, "require_type_match", bool, True),
            **sections,
        )
    except ValueError as exc:
        raise FormatError(f"bad config value: {exc}") from exc


def load_config(path: str | Path) -> PipelineConfig:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FormatError(f"config {path} is not valid JSON: {exc}") from exc
    except OSError as exc:
        raise FormatError(f"cannot read config {path}: {exc}") from exc
    return config_from_dict(raw)
