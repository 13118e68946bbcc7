"""Parsing token sequences into the constituent parts of a job title.

Grammar (WORD before the main function is treated as an unknown domain;
parentheses are allowed once, at the end, and do not nest):

    title          := main_part (SEP secondary_part)? paren_info?
    main_part      := POSITION* (DOMAIN | WORD)* FUNCTION of_clause?
    of_clause      := SEP (DOMAIN | WORD)+
    secondary_part := POSITION* DOMAIN* FUNCTION
    paren_info     := OPEN_PAREN token* CLOSE_PAREN

Extraction: the main-part FUNCTION is the primary function; DOMAIN tokens
of the main part and of-clause form the domain (of-clause WORD tokens
count only when the main part contributed no domain, which covers
inverted forms like "manager, finance"); POSITION tokens from the main
and secondary parts form the position; the secondary-part FUNCTION is the
secondary function; parenthesized content becomes additional info.
A `ParsedTitle` is an immutable NamedTuple, equal to a plain tuple.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple, Sequence

from .lexer import Token, TokenClass


class ParseErrorCode(Enum):
    NO_PRIMARY_FUNCTION = "NO_PRIMARY_FUNCTION"
    UNBALANCED_PAREN = "UNBALANCED_PAREN"
    SYNTAX = "SYNTAX"


class TitleParseError(ValueError):
    """Parse failure carrying the first offending token index.

    `token_index` may equal len(tokens) when input ended too early.
    """

    def __init__(self, code: ParseErrorCode, token_index: int, message: str):
        super().__init__(f"{code.value} at token {token_index}: {message}")
        self.code = code
        self.token_index = token_index


class ParsedTitle(NamedTuple):
    """Constituent parts of one job title, all lowercase."""

    primary_function: str
    domain: tuple[str, ...]
    position: tuple[str, ...]
    secondary_function: str | None = None
    additional_info: str | None = None

    def key(self) -> tuple:
        """Order-insensitive identity of the parts; equal keys mean
        equivalent titles."""
        return (
            self.primary_function,
            tuple(sorted(self.domain)),
            tuple(sorted(self.position)),
            self.secondary_function or "",
            self.additional_info or "",
        )


def _check_parens(tokens: Sequence[Token]) -> None:
    depth = 0
    last_open = -1
    for idx, tok in enumerate(tokens):
        if tok.cls is TokenClass.OPEN_PAREN:
            depth += 1
            last_open = idx
            if depth > 1:
                raise TitleParseError(ParseErrorCode.UNBALANCED_PAREN, idx,
                                      "nested parenthesis")
        elif tok.cls is TokenClass.CLOSE_PAREN:
            depth -= 1
            if depth < 0:
                raise TitleParseError(ParseErrorCode.UNBALANCED_PAREN, idx,
                                      "close without open")
    if depth != 0:
        raise TitleParseError(ParseErrorCode.UNBALANCED_PAREN, last_open,
                              "unclosed parenthesis")


def _run_end(tokens: Sequence[Token], start: int) -> int:
    """Index of the first SEP/paren token at or after start."""
    i = start
    while i < len(tokens) and tokens[i].cls not in (
            TokenClass.SEP, TokenClass.OPEN_PAREN, TokenClass.CLOSE_PAREN):
        i += 1
    return i


def parse(tokens: Sequence[Token]) -> ParsedTitle:
    """Parse a token sequence; raises TitleParseError on failure."""
    _check_parens(tokens)
    has_function = any(t.cls is TokenClass.FUNCTION for t in tokens)

    n = len(tokens)
    i = 0
    positions: list[str] = []
    domains: list[str] = []

    while i < n and tokens[i].cls is TokenClass.POSITION:
        positions.append(tokens[i].value)
        i += 1
    while i < n and tokens[i].cls in (TokenClass.DOMAIN, TokenClass.WORD):
        domains.append(tokens[i].value)
        i += 1
    main_domain_count = len(domains)

    if i >= n or tokens[i].cls is not TokenClass.FUNCTION:
        if not has_function:
            raise TitleParseError(ParseErrorCode.NO_PRIMARY_FUNCTION, i,
                                  "no function token in title")
        raise TitleParseError(ParseErrorCode.SYNTAX, i, "expected function")
    primary = tokens[i].value
    i += 1

    # of-clause: a separator followed by domains/words with no function
    if i < n and tokens[i].cls is TokenClass.SEP:
        end = _run_end(tokens, i + 1)
        run = tokens[i + 1:end]
        if run and not any(t.cls is TokenClass.FUNCTION for t in run):
            for offset, tok in enumerate(run):
                if tok.cls not in (TokenClass.DOMAIN, TokenClass.WORD):
                    raise TitleParseError(ParseErrorCode.SYNTAX, i + 1 + offset,
                                          f"unexpected {tok.cls.value} after separator")
            domains.extend(t.value for t in run if t.cls is TokenClass.DOMAIN)
            if main_domain_count == 0:
                domains.extend(t.value for t in run if t.cls is TokenClass.WORD)
            i = end

    secondary: str | None = None
    if i < n and tokens[i].cls is TokenClass.SEP:
        j = i + 1
        sec_positions: list[str] = []
        while j < n and tokens[j].cls is TokenClass.POSITION:
            sec_positions.append(tokens[j].value)
            j += 1
        while j < n and tokens[j].cls is TokenClass.DOMAIN:
            j += 1
        if j >= n or tokens[j].cls is not TokenClass.FUNCTION:
            raise TitleParseError(ParseErrorCode.SYNTAX, j,
                                  "expected function in secondary part")
        secondary = tokens[j].value
        positions.extend(sec_positions)
        i = j + 1

    additional: str | None = None
    if i < n and tokens[i].cls is TokenClass.OPEN_PAREN:
        j = i + 1
        content: list[str] = []
        while tokens[j].cls is not TokenClass.CLOSE_PAREN:  # balance checked above
            content.append(tokens[j].value)
            j += 1
        additional = " ".join(content) if content else None
        i = j + 1

    if i != n:
        raise TitleParseError(ParseErrorCode.SYNTAX, i,
                              f"unexpected {tokens[i].cls.value}")

    return ParsedTitle(
        primary_function=primary,
        domain=tuple(domains),
        position=tuple(positions),
        secondary_function=secondary,
        additional_info=additional,
    )
