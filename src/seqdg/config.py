"""Run configuration: a strict JSON file plus command-line overrides.

The file has up to four sections: "synth" (generator), "model"
(architecture), "train" (optimization), and "ablate" (grid axes).
Unknown sections or keys are hard errors, and validation reports every
violated constraint at once rather than stopping at the first.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from pathlib import Path

from seqdg.model import ModelConfig
from seqdg.synth import SynthConfig
from seqdg.train import TrainConfig

__all__ = ["ConfigError", "RunConfig", "load_run_config", "file_sha256"]

SECTIONS = ("synth", "model", "train", "ablate")
# each grid axis and the model or train field it sweeps
ABLATE_FIELDS = {"W": "W", "p_mix": "p_mix", "lambda_rv": "lambda_rv",
                 "lambda_rt": "lambda_rt", "seeds": "seed"}
DEFAULT_ABLATE = {"W": [1, 5], "p_mix": [0.0, 0.5], "lambda_rv": [0.0, 1.0],
                  "lambda_rt": [0.0, 1.0], "seeds": [0]}


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
                "train": {k: v for k, v in self.train.to_dict().items()
                          if k != "model"},
                "ablate": self.ablate}


def _defaults(cls) -> dict:
    return {f.name: f.default for f in fields(cls)}


def _fits(default, value) -> bool:
    """Whether a JSON value may set a field whose default is `default`: a
    number for a float, a list of ints for a tuple, an int or null where
    the default is null, the exact type otherwise (a bool is no number)."""
    if isinstance(default, float):
        return type(value) in (int, float)
    if isinstance(default, tuple):
        return type(value) is list and all(type(v) is int for v in value)
    if default is None:
        return value is None or type(value) is int
    return type(value) is type(default)


def _check_section(section: str, payload, defaults: dict, problems: list[str]):
    if type(payload) is not dict:
        problems.append(f"{section} must be a JSON object")
        return
    for key, value in payload.items():
        if key not in defaults:
            problems.append(f"{section}: unknown key {key!r}")
        elif not _fits(defaults[key], value):
            problems.append(f"{section}: {key} cannot be {value!r}")


def load_run_config(path=None, overrides: dict | None = None,
                    model_patch: dict | None = None) -> RunConfig:
    """Parse and validate a config file, then apply flag overrides.

    `model_patch` force-sets model fields that the dataset dictates (its
    feature widths); flag overrides win over the file for everything
    else. Raises ConfigError carrying every violation found in one pass.
    """
    problems: list[str] = []
    raw: dict = {}
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ConfigError([f"config file not found: {path}"])
        except json.JSONDecodeError as exc:
            raise ConfigError([f"config file is not valid JSON: {exc}"])
        if not isinstance(raw, dict):
            raise ConfigError(["config file must hold a JSON object"])
        for section in raw:
            if section not in SECTIONS:
                problems.append(f"unknown section {section!r} "
                                f"(expected one of {list(SECTIONS)})")

    model_defaults = _defaults(ModelConfig)
    train_defaults = _defaults(TrainConfig)
    del train_defaults["model"]
    synth_raw = raw.get("synth", {})
    model_raw = raw.get("model", {})
    train_raw = raw.get("train", {})
    ablate_raw = raw.get("ablate", {})
    _check_section("synth", synth_raw, _defaults(SynthConfig), problems)
    _check_section("model", model_raw, model_defaults, problems)
    _check_section("train", train_raw, train_defaults, problems)
    # every grid axis holds a list, each element typed as the field it sweeps
    _check_section("ablate", ablate_raw, dict.fromkeys(ABLATE_FIELDS, []), problems)
    if problems:
        raise ConfigError(problems)
    ablate = {**DEFAULT_ABLATE, **ablate_raw}
    swept = {**model_defaults, **train_defaults}
    for key, values in ablate.items():
        if not values:
            problems.append(f"ablate: {key} must be a non-empty list")
        elif not all(_fits(swept[ABLATE_FIELDS[key]], v) for v in values):
            problems.append(f"ablate: {key} cannot hold {values!r}")

    overrides = overrides or {}
    seed = overrides.get("seed")
    if seed is not None:
        synth_raw["seed"] = seed
        train_raw["seed"] = seed
    for key in ("W",):
        if overrides.get(key) is not None:
            model_raw[key] = overrides[key]
    for key in ("lambda_rv", "lambda_rt", "p_mix", "epochs"):
        if overrides.get(key) is not None:
            train_raw[key] = overrides[key]
    if model_patch:
        model_raw.update(model_patch)

    synth = SynthConfig(**synth_raw)
    if "lr_decay_epochs" in train_raw:
        train_raw["lr_decay_epochs"] = tuple(train_raw["lr_decay_epochs"])
    train = TrainConfig(model=ModelConfig(**model_raw), **train_raw)
    problems.extend(f"synth: {e}" for e in synth.validate())
    problems.extend(f"model/train: {e}" for e in train.validate())
    if problems:
        raise ConfigError(problems)
    return RunConfig(synth=synth, train=train, ablate=ablate)


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
