"""Job-title tokenization, parsing and canonicalization."""

from .dictionaries import DictionaryError, TitleDictionaries
from .grammar import ParsedTitle, ParseErrorCode, TitleParseError, parse
from .lexer import (LexicalError, Token, TokenClass, clean_title, reconstruct,
                    tokenize)
from .normalize import (LEXICAL_ERROR_CODE, NormalizationMap, NormalizationStats,
                        ParseFailure, build_normalization)
from .translate import TranslationTable, TranslationTableError, identity

__all__ = [
    "DictionaryError",
    "TitleDictionaries",
    "ParsedTitle",
    "ParseErrorCode",
    "TitleParseError",
    "parse",
    "LexicalError",
    "Token",
    "TokenClass",
    "clean_title",
    "reconstruct",
    "tokenize",
    "LEXICAL_ERROR_CODE",
    "NormalizationMap",
    "NormalizationStats",
    "ParseFailure",
    "build_normalization",
    "TranslationTable",
    "TranslationTableError",
    "identity",
]
