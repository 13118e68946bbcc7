"""Token-class dictionaries for the title lexer.

Three plain-text files define the closed vocabularies (functions,
positions, domains). Files are UTF-8, one phrase per line; `#` starts a
comment line; `alias=target` lines map a surface form onto a canonical
phrase. Everything else is the open WORD class. `TitleDictionaries` is
an immutable NamedTuple, equal to a plain tuple of its fields.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, NamedTuple

FUNCTION = "function"
POSITION = "position"
DOMAIN = "domain"

# When one phrase appears in several dictionaries the higher-priority
# class wins.
_PRIORITY = (FUNCTION, POSITION, DOMAIN)


class DictionaryError(ValueError):
    """A dictionary file is missing or malformed."""


def _normalize(phrase: str) -> str:
    return " ".join(phrase.lower().split())


def _read_dict_file(path: Path) -> dict[str, str]:
    entries: dict[str, str] = {}
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DictionaryError(f"cannot read dictionary file {path}: {exc}") from exc
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" in line:
            surface, _, target = line.partition("=")
            surface, target = _normalize(surface), _normalize(target)
            if not surface or not target:
                raise DictionaryError(f"{path}:{line_no}: malformed alias line {raw!r}")
            entries[surface] = target
        else:
            phrase = _normalize(line)
            entries[phrase] = phrase
    return entries


class TitleDictionaries(NamedTuple):
    """Immutable lookup tables mapping surface phrases to canonical forms."""

    functions: Mapping[str, str]
    positions: Mapping[str, str]
    domains: Mapping[str, str]
    max_phrase_len: int

    @classmethod
    def from_tables(cls, functions: Mapping[str, str], positions: Mapping[str, str],
                    domains: Mapping[str, str]) -> "TitleDictionaries":
        longest = 1
        for table in (functions, positions, domains):
            for phrase in table:
                longest = max(longest, len(phrase.split()))
        return cls(dict(functions), dict(positions), dict(domains), longest)

    @classmethod
    def load(cls, functions_path, positions_path, domains_path) -> "TitleDictionaries":
        return cls.from_tables(
            _read_dict_file(Path(functions_path)),
            _read_dict_file(Path(positions_path)),
            _read_dict_file(Path(domains_path)),
        )

    @classmethod
    def load_dir(cls, directory) -> "TitleDictionaries":
        """Load functions.txt, positions.txt and domains.txt from a directory."""
        d = Path(directory)
        return cls.load(d / "functions.txt", d / "positions.txt", d / "domains.txt")

    @classmethod
    def bundled(cls) -> "TitleDictionaries":
        """The dictionaries shipped with the package, read from its `data`
        directory; `importlib.resources` is not used, because from Python
        3.12 on it imports `inspect` in every process."""
        return cls.load_dir(Path(__file__).parent / "data")

    def lookup(self, phrase: str) -> tuple[str, str] | None:
        """Classify a phrase; returns (class, canonical form) or None."""
        for category, table in ((FUNCTION, self.functions),
                                (POSITION, self.positions),
                                (DOMAIN, self.domains)):
            canonical = table.get(phrase)
            if canonical is not None:
                return category, canonical
        return None
