"""JSON experiment configuration: defaults, strict key checking, echoing."""
from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .data import TrainConfig
from .errors import ConfigError
from .noise import NoiseSpec, SynthSpec, pair_map_fits


@dataclass(frozen=True)
class ParsedConfig:
    train: TrainConfig
    noise: Optional[NoiseSpec]
    synth: Optional[SynthSpec]

    def echo(self) -> dict:
        """Every resolved value, defaults included, for the run manifest."""
        out = {"train": dataclasses.asdict(self.train)}
        if self.noise is not None:
            out["noise"] = dataclasses.asdict(self.noise)
        if self.synth is not None:
            out["synth"] = dataclasses.asdict(self.synth)
        return out


def _build(cls, obj, context: str):
    if not isinstance(obj, dict):
        raise ConfigError("PARSE_ERROR",
                          f"{context} section must be a JSON object, got {obj!r}")
    allowed = {f.name for f in dataclasses.fields(cls)}
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError("UNKNOWN_KEY",
                          f"unknown {context} key(s): {sorted(unknown)}")
    try:
        return cls(**obj)
    except ConfigError as exc:
        # each range message starts with its key: name the section's keys
        # (noise.seed=-3), and keep the train keys, the config root, bare
        if context == "train" or exc.code != "RANGE_ERROR":
            raise
        raise ConfigError(exc.code, f"{context}.{exc.message}") from None


def parse_config_dict(obj: dict) -> ParsedConfig:
    if not isinstance(obj, dict):
        raise ConfigError("PARSE_ERROR", "config root must be a JSON object")
    train_kwargs = {k: v for k, v in obj.items() if k not in ("noise", "synth")}
    train = _build(TrainConfig, train_kwargs, "train")
    noise = _build(NoiseSpec, obj["noise"], "noise") if "noise" in obj else None
    synth = _build(SynthSpec, obj["synth"], "synth") if "synth" in obj else None
    # an SSRD input's class count is known only when read, so its pair map
    # is checked at injection (MISSING_PAIR_MAP)
    if (noise is not None and synth is not None and noise.kind == "asymmetric"
            and not pair_map_fits(noise.pair_map, synth.num_classes)):
        raise ConfigError("RANGE_ERROR", f"noise.pair_map={noise.pair_map!r} "
                          f"must map each of synth.num_classes="
                          f"{synth.num_classes} classes to another class")
    return ParsedConfig(train, noise, synth)


def parse_config(path) -> ParsedConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError("PARSE_ERROR", f"cannot read {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("PARSE_ERROR",
                          f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return parse_config_dict(obj)
