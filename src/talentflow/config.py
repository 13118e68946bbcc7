"""Pipeline configuration: defaults, flat key=value config files, and
precedence handling (defaults < config file < command-line flags)."""

from __future__ import annotations

from pathlib import Path
from typing import Callable

from .dates import parse_month
from .titles import (DictionaryError, TitleDictionaries, TranslationTable,
                     TranslationTableError, identity)


class ConfigError(ValueError):
    """Invalid or inconsistent configuration."""


# Every config key and its default. A key with an int or float default
# takes that type from a config file; the others are strings or None.
_DEFAULTS = {
    "input": None,
    "out": None,
    "reference_date": None,
    "title_min_sup": 10,
    "edge_min_sup": 2,
    "cohort_min_sup": 100,
    "job_min_sup": 10,
    "damping": 0.85,
    "tol": 1e-10,
    "max_iter": 200,
    "dicts": None,  # directory with functions/positions/domains files
    "translate_table": None,
    "top_k": 10,
}


class PipelineConfig:
    """Mutable settings, one attribute per `_DEFAULTS` key; keyword
    arguments override the defaults."""

    __slots__ = tuple(_DEFAULTS)

    def __init__(self, **values) -> None:
        for name, value in {**_DEFAULTS, **values}.items():
            setattr(self, name, value)  # a name with no slot: AttributeError

    def validate(self) -> None:
        if not self.out:
            raise ConfigError("output directory is required")
        for name in ("title_min_sup", "edge_min_sup", "cohort_min_sup", "job_min_sup"):
            value = getattr(self, name)
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")
        if not 0 < self.damping < 1:
            raise ConfigError(f"damping must be in (0, 1), got {self.damping}")
        if self.tol <= 0:
            raise ConfigError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ConfigError(f"max_iter must be >= 1, got {self.max_iter}")
        if self.top_k < 1:
            raise ConfigError(f"top_k must be >= 1, got {self.top_k}")
        if self.reference_date is not None:
            try:
                parse_month(self.reference_date)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc

    def reference_month(self) -> int:
        if self.reference_date is None:
            raise ConfigError("reference date is required for this stage")
        return parse_month(self.reference_date)

    def load_dictionaries(self) -> TitleDictionaries:
        try:
            if self.dicts is None:
                return TitleDictionaries.bundled()
            return TitleDictionaries.load_dir(self.dicts)
        except DictionaryError as exc:
            raise ConfigError(str(exc)) from exc

    def load_translator(self) -> Callable[[str], str]:
        if self.translate_table is None:
            return identity
        try:
            return TranslationTable.load(self.translate_table)
        except TranslationTableError as exc:
            raise ConfigError(str(exc)) from exc

    def echo(self) -> dict:
        """Configuration as plain JSON-compatible values, for the manifest."""
        return {name: getattr(self, name) for name in _DEFAULTS}


def _convert(name: str, raw: str):
    kind = type(_DEFAULTS[name])
    try:
        return kind(raw) if kind in (int, float) else raw
    except ValueError as exc:
        raise ConfigError(f"bad value for {name}: {raw!r}") from exc


def read_config_file(path) -> dict:
    """Flat UTF-8 key=value file; `#` starts a comment line. Keys must be
    config field names with dashes or underscores."""
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        name = key.strip().replace("-", "_")
        if name not in _DEFAULTS:
            raise ConfigError(f"{path}:{line_no}: unknown config key {key.strip()!r}")
        values[name] = _convert(name, value.strip())
    return values


def build_config(file_values: dict | None = None,
                 cli_values: dict | None = None) -> PipelineConfig:
    """Merge config sources; later sources win: defaults, then the config
    file, then explicit command-line values (None means unset)."""
    config = PipelineConfig()
    for source in (file_values or {}), (cli_values or {}):
        for name, value in source.items():
            if value is None:
                continue
            if name not in _DEFAULTS:
                raise ConfigError(f"unknown config key {name!r}")
            setattr(config, name, value)
    return config
