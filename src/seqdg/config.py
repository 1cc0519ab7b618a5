"""Run configuration: a strict JSON file plus command-line overrides.

The file has up to four sections: "synth" (generator), "model"
(architecture), "train" (optimization), and "ablate" (grid axes).
Unknown sections or keys are hard errors, and validation reports every
violated constraint at once rather than stopping at the first.
"""

from __future__ import annotations

import hashlib
import json
import math
import reprlib
from dataclasses import dataclass, fields
from pathlib import Path

from seqdg.model import ModelConfig
from seqdg.synth import SynthConfig
from seqdg.train import TrainConfig

__all__ = ["ConfigError", "RunConfig", "load_run_config", "field_defaults", "field_problems",
           "file_sha256"]

SECTIONS = ("synth", "model", "train", "ablate")
# each grid axis and the model or train field it sweeps
ABLATE_FIELDS = {"W": "W", "p_mix": "p_mix", "lambda_rv": "lambda_rv",
                 "lambda_rt": "lambda_rt", "seeds": "seed"}
DEFAULT_ABLATE = {"W": [1, 5], "p_mix": [0.0, 0.5], "lambda_rv": [0.0, 1.0],
                  "lambda_rt": [0.0, 1.0]}


class ConfigError(Exception):
    """All configuration problems found, newline-joined."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid configuration:\n  " + "\n  ".join(self.problems))


@dataclass
class RunConfig:
    synth: SynthConfig
    train: TrainConfig
    ablate: dict

    @property
    def model(self) -> ModelConfig:
        return self.train.model

    def to_dict(self) -> dict:
        return {"synth": self.synth.to_dict(), "model": self.model.to_dict(),
                "train": self.train.to_dict(), "ablate": self.ablate}


def field_defaults(cls) -> dict:
    return {f.name: f.default for f in fields(cls)}


def _fits(default, value) -> bool:
    """Whether a JSON value may set a field whose default is `default`: a
    number that converts to a finite float for a float, a list of ints for
    a tuple, an int or null where the default is null, the exact type
    otherwise (a bool is no number). Python's JSON parser reads NaN and
    Infinity as floats, and an int of any size as an int."""
    if isinstance(default, float):
        try:
            return type(value) in (int, float) and math.isfinite(float(value))
        except OverflowError:  # an int past the float range
            return False
    if isinstance(default, tuple):
        return type(value) is list and all(type(v) is int for v in value)
    if default is None:
        return value is None or type(value) is int
    return type(value) is type(default)


def field_problems(section: str, payload, defaults: dict) -> list[str]:
    """The typing rule of every JSON object that sets config fields, a
    config file's sections, a checkpoint header's model config and a truth
    file's generator config alike: each key is one of `defaults` and each
    value fits that field's default."""
    if type(payload) is not dict:
        return [f"{section} must be a JSON object"]
    return [f"{section}: unknown key {key!r}" if key not in defaults
            else f"{section}: {key} cannot be {reprlib.repr(value)}"
            for key, value in payload.items()
            if key not in defaults or not _fits(defaults[key], value)]


def load_run_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Parse and validate a config file, then apply `overrides`.

    Each override that is not None sets its field in every section, and
    pins the grid axis that sweeps it, over what the file says; a grid
    axis the file leaves out takes `DEFAULT_ABLATE`, or `[train.seed]`.
    Raises ConfigError carrying every violation found in one pass.
    """
    problems: list[str] = []
    raw: dict = {}
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError([f"cannot read config file: {exc}"])
        except (ValueError, RecursionError) as exc:
            # JSONDecodeError, UnicodeDecodeError, an int past Python's digit
            # limit, or nesting past the recursion limit
            raise ConfigError([f"config file is not valid JSON: {exc}"])
        if not isinstance(raw, dict):
            raise ConfigError(["config file must hold a JSON object"])
        for section in raw:
            if section not in SECTIONS:
                problems.append(f"unknown section {section!r} "
                                f"(expected one of {list(SECTIONS)})")

    defaults = {"synth": field_defaults(SynthConfig), "model": field_defaults(ModelConfig),
                "train": field_defaults(TrainConfig)}
    del defaults["train"]["model"]
    sections = {name: raw.get(name, {}) for name in defaults}
    ablate_raw = raw.get("ablate", {})
    for name, section in sections.items():
        problems += field_problems(name, section, defaults[name])
    # every grid axis holds a list, each element typed as the field it sweeps
    problems += field_problems("ablate", ablate_raw, dict.fromkeys(ABLATE_FIELDS, []))
    if problems:
        raise ConfigError(problems)
    swept = {**defaults["model"], **defaults["train"]}
    for key, values in ablate_raw.items():
        if not values:
            problems.append(f"ablate: {key} must be a non-empty list")
        elif not all(_fits(swept[ABLATE_FIELDS[key]], v) for v in values):
            problems.append(f"ablate: {key} cannot hold {reprlib.repr(values)}")

    overrides = {k: v for k, v in (overrides or {}).items() if v is not None}
    # override values obey the file's typing rule (a float flag also parses "nan")
    problems += field_problems("flags", overrides,
                               {k: v for d in defaults.values() for k, v in d.items()})
    for name, section in sections.items():
        section.update((k, v) for k, v in overrides.items() if k in defaults[name])

    synth = SynthConfig(**sections["synth"])
    train_raw = sections["train"]
    if "lr_decay_epochs" in train_raw:
        train_raw["lr_decay_epochs"] = tuple(train_raw["lr_decay_epochs"])
    train = TrainConfig(model=ModelConfig(**sections["model"]), **train_raw)
    problems.extend(f"synth: {e}" for e in synth.validate())
    problems.extend(f"model/train: {e}" for e in train.validate())
    if problems:
        raise ConfigError(problems)
    ablate = {axis: [overrides[name]] if name in overrides
              else ablate_raw.get(axis, DEFAULT_ABLATE.get(axis, [train.seed]))
              for axis, name in ABLATE_FIELDS.items()}
    return RunConfig(synth=synth, train=train, ablate=ablate)


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
