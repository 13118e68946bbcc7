"""Lexical analysis of raw job titles.

A title is lowercased, punctuation separators and parentheses are split
out, and the remaining words are classified against the dictionaries.
`;` is a separator like `,`, so no token holds the `;` that joins the
domain and position lists in `normalization_map.csv`.
Multi-word dictionary phrases match greedily, longest first. Joining the
token lexemes with single spaces reconstructs the cleaned title exactly.
A `Token` is an immutable NamedTuple, equal to a plain tuple.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import NamedTuple

from .dictionaries import DOMAIN, FUNCTION, POSITION, TitleDictionaries


class TokenClass(Enum):
    FUNCTION = "FUNCTION"
    POSITION = "POSITION"
    DOMAIN = "DOMAIN"
    WORD = "WORD"
    SEP = "SEP"
    OPEN_PAREN = "OPEN_PAREN"
    CLOSE_PAREN = "CLOSE_PAREN"


_CATEGORY_TO_CLASS = {
    FUNCTION: TokenClass.FUNCTION,
    POSITION: TokenClass.POSITION,
    DOMAIN: TokenClass.DOMAIN,
}

SEP_CHARS = frozenset({",", ";", "-", "/", "&"})
SEP_WORDS = frozenset({"of", "for", "and", "at", "in"})

_PAD_RE = re.compile(r"([,;\-/&()])")


class LexicalError(ValueError):
    """The title contains nothing tokenizable."""


class Token(NamedTuple):
    """`lexeme` is the surface form; `value` is the dictionary-canonical
    form (aliases resolved), equal to the lexeme for open-class words."""

    lexeme: str
    cls: TokenClass
    value: str


def _words(title: str) -> list[str]:
    padded = _PAD_RE.sub(r" \1 ", title.lower())
    out = []
    for w in padded.split():
        if w in SEP_CHARS or w in ("(", ")") or any(ch.isalnum() for ch in w):
            out.append(w)
        # words with no alphanumeric content ("???") are not tokenizable
    return out


def clean_title(title: str) -> str:
    """Lowercased title with separators split out and junk words dropped."""
    return " ".join(_words(title))


def tokenize(title: str, dicts: TitleDictionaries) -> list[Token]:
    """Tokenize a raw title against the dictionaries.

    Raises LexicalError when nothing tokenizable remains after cleaning.
    """
    words = _words(title)
    if not words:
        raise LexicalError(f"title has no tokenizable content: {title!r}")

    tokens: list[Token] = []
    i = 0
    n = len(words)
    while i < n:
        w = words[i]
        if w == "(":
            tokens.append(Token(w, TokenClass.OPEN_PAREN, w))
            i += 1
        elif w == ")":
            tokens.append(Token(w, TokenClass.CLOSE_PAREN, w))
            i += 1
        elif w in SEP_CHARS or w in SEP_WORDS:
            tokens.append(Token(w, TokenClass.SEP, w))
            i += 1
        else:
            # greedy longest-first phrase match within the current run of
            # plain words (phrases never cross separators or parens)
            run_end = i
            while run_end < n and words[run_end] not in SEP_CHARS \
                    and words[run_end] not in SEP_WORDS \
                    and words[run_end] not in ("(", ")"):
                run_end += 1
            matched = False
            for length in range(min(dicts.max_phrase_len, run_end - i), 0, -1):
                phrase = " ".join(words[i:i + length])
                hit = dicts.lookup(phrase)
                if hit is not None:
                    category, canonical = hit
                    tokens.append(Token(phrase, _CATEGORY_TO_CLASS[category], canonical))
                    i += length
                    matched = True
                    break
            if not matched:
                tokens.append(Token(w, TokenClass.WORD, w))
                i += 1
    return tokens
