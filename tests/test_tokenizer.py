import pytest
from hypothesis import given, strategies as st

from pedlex import default_inventory, tokenize
from pedlex.errors import TokenizeError
from pedlex.tokenizer import normalize_ipa

INV = default_inventory()
LABELS = sorted(INV.labels())


def test_five_sounds_of_father_word():
    assert tokenize("fa:tər", INV).labels == ("f", "a:", "t", "ə", "r")


def test_five_sounds_of_greeting_word():
    assert tokenize("ʃəlɒm", INV).labels == ("ʃ", "ə", "l", "ɒ", "m")


def test_empty_input_is_empty_not_error():
    result = tokenize("", INV)
    assert len(result) == 0
    assert result.source_text == ""


def test_longest_match_takes_aspirated_stop():
    assert tokenize("tʰat", INV).labels == ("tʰ", "a", "t")


def test_length_mark_variants_normalize_to_same_tokens():
    assert tokenize("faːtər", INV).labels == tokenize("fa:tər", INV).labels


def test_affricate_is_one_token():
    assert tokenize("tʃʰa", INV).labels == ("tʃʰ", "a")


def test_unknown_symbol_reports_offset():
    with pytest.raises(TokenizeError) as excinfo:
        tokenize("ab☃cd", INV)
    assert excinfo.value.offset == 2


def test_whitespace_rejected():
    with pytest.raises(TokenizeError, match="whitespace"):
        tokenize("a b", INV)


def test_concatenated_labels_reconstruct_source():
    result = tokenize("t̪ʰumhɛ:n", INV)
    assert "".join(result.labels) == result.source_text


@given(st.lists(st.sampled_from(LABELS), max_size=10))
def test_retokenizing_concatenation_is_a_fixed_point(labels):
    text = "".join(labels)
    first = tokenize(text, INV)
    again = tokenize("".join(first.labels), INV)
    assert again.labels == first.labels


@given(st.lists(st.sampled_from(LABELS), max_size=10))
def test_token_count_bounded_by_codepoints(labels):
    text = "".join(labels)
    assert len(tokenize(text, INV)) <= len(text)


# ------------------------------------------------- differential vs the loop


def greedy_tokenize(text, inv):
    """The per-position longest-match loop, kept as the scanner's reference."""
    normalized = normalize_ipa(text)
    max_len = max(map(len, inv.entries), default=0)
    phones = []
    pos = 0
    while pos < len(normalized):
        for length in range(min(max_len, len(normalized) - pos), 0, -1):
            phone = inv.get(normalized[pos : pos + length])
            if phone is not None:
                break
        else:
            raise TokenizeError(
                f"unknown symbol {normalized[pos]!r} at offset {pos} in {text!r}",
                offset=pos,
            )
        phones.append(phone)
        pos += length
    return tuple(phones)


def outcome(fn):
    try:
        return fn()
    except TokenizeError as exc:
        return ("TokenizeError", str(exc), exc.offset)


PREFIXES = sorted({label[:k] for label in LABELS for k in range(1, len(label))})
LONG_MARK_SPELLINGS = sorted({label.replace(":", "ː") for label in LABELS if ":" in label})
OUTSIDE = ["☃", "Q", ".", "*", "(", "|", "\\", "[", "?", "+", "̃", "ˑ"]
assert not set(OUTSIDE) & set(LABELS)

PIECES = st.one_of(
    st.sampled_from(LABELS),
    st.sampled_from(PREFIXES),
    st.sampled_from(LONG_MARK_SPELLINGS + ["ː", ":"]),
    st.sampled_from(OUTSIDE),
)


@given(st.lists(PIECES, max_size=12).map("".join))
def test_scanner_matches_greedy_loop(text):
    expected = outcome(lambda: greedy_tokenize(text, INV))
    actual = outcome(lambda: tokenize(text, INV).phones)
    assert actual == expected
