from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from talentflow.titles import (LexicalError, TitleDictionaries, TokenClass,
                               clean_title, tokenize)


def classes(tokens):
    return [t.cls for t in tokens]


def lexemes(tokens):
    return [t.lexeme for t in tokens]


def test_manager_comma_finance(dicts):
    tokens = tokenize("Manager, Finance", dicts)
    assert [(t.cls, t.lexeme) for t in tokens] == [
        (TokenClass.FUNCTION, "manager"),
        (TokenClass.SEP, ","),
        (TokenClass.DOMAIN, "finance"),
    ]


def test_senior_software_engineer(dicts):
    tokens = tokenize("Senior Software Engineer", dicts)
    assert [(t.cls, t.lexeme) for t in tokens] == [
        (TokenClass.POSITION, "senior"),
        (TokenClass.DOMAIN, "software"),
        (TokenClass.FUNCTION, "engineer"),
    ]


def test_no_tokenizable_content_is_lexical_error(dicts):
    with pytest.raises(LexicalError):
        tokenize("???", dicts)
    with pytest.raises(LexicalError):
        tokenize("   ", dicts)


def test_sep_words_and_chars(dicts):
    tokens = tokenize("director of research & development", dicts)
    assert classes(tokens) == [TokenClass.FUNCTION, TokenClass.SEP,
                               TokenClass.DOMAIN, TokenClass.SEP, TokenClass.WORD]
    # `;` separates like `,`: no token may hold normalization_map.csv's
    # list separator
    tokens = tokenize("r;d engineer", dicts)
    assert [(t.cls, t.lexeme) for t in tokens] == [
        (TokenClass.WORD, "r"), (TokenClass.SEP, ";"),
        (TokenClass.WORD, "d"), (TokenClass.FUNCTION, "engineer"),
    ]


def test_multiword_phrase_greedy_longest_first(dicts):
    tokens = tokenize("human resources manager", dicts)
    assert [(t.cls, t.lexeme) for t in tokens] == [
        (TokenClass.DOMAIN, "human resources"),
        (TokenClass.FUNCTION, "manager"),
    ]
    tokens = tokenize("vice president", dicts)
    assert [(t.cls, t.lexeme) for t in tokens] == [
        (TokenClass.FUNCTION, "vice president"),
    ]


def test_alias_resolves_value_keeps_lexeme(dicts):
    tokens = tokenize("finance manger", dicts)
    assert tokens[1].lexeme == "manger"
    assert tokens[1].value == "manager"
    assert tokens[1].cls is TokenClass.FUNCTION


def test_class_priority_function_wins():
    custom = TitleDictionaries.from_tables(
        functions={"pivot": "pivot"},
        positions={"pivot": "pivot", "solo": "solo"},
        domains={"pivot": "pivot", "solo": "solo"},
    )
    tokens = tokenize("pivot solo", custom)
    assert classes(tokens) == [TokenClass.FUNCTION, TokenClass.POSITION]


def test_unknown_words_are_open_class(dicts):
    tokens = tokenize("blockchain developer", dicts)
    assert classes(tokens) == [TokenClass.WORD, TokenClass.FUNCTION]


def test_parens_become_tokens(dicts):
    tokens = tokenize("software engineer (contract)", dicts)
    assert classes(tokens) == [TokenClass.DOMAIN, TokenClass.FUNCTION,
                               TokenClass.OPEN_PAREN, TokenClass.WORD,
                               TokenClass.CLOSE_PAREN]


def test_reconstruction(dicts):
    for title in ["Manager,   Finance", "senior software engineer",
                  "vice president of sales", "engineer (contract)",
                  "c++ developer", "human resources / finance manager"]:
        tokens = tokenize(title, dicts)
        assert " ".join(t.lexeme for t in tokens) == clean_title(title)


WORDS = st.sampled_from(["manager", "engineer", "senior", "finance", "software",
                         "research", "of", "and", "blockchain", "zzz", "c++",
                         "human", "resources", "vice", "president"])
PUNCT = st.sampled_from([",", ";", "-", "/", "&", "(", ")", " ", "  "])


@given(st.lists(st.one_of(WORDS, PUNCT), min_size=1, max_size=10))
def test_reconstruction_property(dicts, pieces):
    title = " ".join(pieces)
    if not clean_title(title):
        with pytest.raises(LexicalError):
            tokenize(title, dicts)
        return
    tokens = tokenize(title, dicts)
    assert " ".join(t.lexeme for t in tokens) == clean_title(title)


@given(st.lists(st.one_of(WORDS, PUNCT), min_size=1, max_size=10))
def test_clean_title_idempotent(pieces):
    title = " ".join(pieces)
    assert clean_title(clean_title(title)) == clean_title(title)
