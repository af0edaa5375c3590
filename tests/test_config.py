"""The config contract, generated from the dataclasses that define it.

Every field of ``PipelineConfig`` and of each of its sections is a JSON key.
A number field refuses booleans, strings and (a float field) NaN and the
infinities; a bool field refuses 0, 1 and strings. Each refusal is a
FormatError that names the key and its section. A key set to its field's
default gives the all-default config. No pipeline runs here.
"""

import dataclasses
import math
import typing

import pytest

from pucl.config import PipelineConfig, config_from_dict
from pucl.errors import FormatError

MINIMAL = {"train": "train.tsv"}
# The JSON key of every top-level field that is not named as its key.
JSON_KEYS = {"dict_path": "dict"}


def _fields():
    """(section or None, JSON key, type, field) of every config field."""
    out = []
    top = typing.get_type_hints(PipelineConfig)
    for f in dataclasses.fields(PipelineConfig):
        if dataclasses.is_dataclass(top[f.name]):
            hints = typing.get_type_hints(top[f.name])
            out += [(f.name, g.name, hints[g.name], g) for g in dataclasses.fields(top[f.name])]
        else:
            out.append((None, JSON_KEYS.get(f.name, f.name), top[f.name], f))
    return out


FIELDS = _fields()
REFUSED = {
    int: [True, False, "1"],
    float: [True, False, "0.5", math.nan, math.inf, -math.inf],
    bool: [0, 1, "true"],
}


def _config(section, key, value):
    return config_from_dict({**MINIMAL, section: {key: value}} if section else {**MINIMAL, key: value})


def _name(section, key):
    return f"{section}.{key}" if section else key


def test_every_kind_of_field_is_covered():
    kinds = [kind for _, _, kind, _ in FIELDS]
    assert all(kinds.count(kind) >= 3 for kind in REFUSED)


@pytest.mark.parametrize(
    "section, key, value",
    [
        pytest.param(section, key, value, id=f"{_name(section, key)}={value!r}")
        for section, key, kind, _ in FIELDS
        for value in REFUSED.get(kind, [])
    ],
)
def test_a_value_of_the_wrong_kind_is_refused_by_name(section, key, value):
    with pytest.raises(FormatError) as raised:
        _config(section, key, value)
    message = str(raised.value)
    assert repr(key) in message
    assert section is None or f"config section {section!r}" in message


@pytest.mark.parametrize(
    "section, key, f",
    [
        pytest.param(section, key, f, id=_name(section, key))
        for section, key, _, f in FIELDS
        if f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING
    ],
)
def test_every_default_round_trips(section, key, f):
    default = f.default if f.default is not dataclasses.MISSING else f.default_factory()
    if dataclasses.is_dataclass(default):  # a whole section, written out field by field
        default = dataclasses.asdict(default)
    assert _config(section, key, default) == config_from_dict(MINIMAL)
