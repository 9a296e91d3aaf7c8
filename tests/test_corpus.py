import logging
import unicodedata

import pytest
from hypothesis import given, strategies as st

from pedlex import (
    WordList,
    convert_word,
    extract_wordlists,
    g2p_convert,
    load_g2p_table,
    read_wordlist,
    write_wordlist,
)
from pedlex.corpus import LANGUAGE_SCRIPTS, TARGET_TAGS
from pedlex.defaults import default_g2p_table_path
from pedlex.errors import ConlluError, G2PError, WordListError

DEVANAGARI = load_g2p_table(default_g2p_table_path("devanagari"))
PERSO_ARABIC = load_g2p_table(default_g2p_table_path("perso-arabic"))


def conllu_line(token_id, form, lemma, upos):
    return "\t".join([str(token_id), form, lemma, upos, "_", "_", "0", "root", "_", "_"])


def write_conllu(tmp_path, sentences, name="corpus.conllu"):
    lines = []
    for sentence in sentences:
        lines.append("# sent_id = x")
        lines.extend(sentence)
        lines.append("")
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------- extraction


def test_lemma_extraction_by_tag(tmp_path):
    path = write_conllu(
        tmp_path,
        [
            [conllu_line(1, "likes", "like", "VERB"), conllu_line(2, "dogs", "dog", "NOUN")],
            [conllu_line(1, "liked", "like", "VERB")],
        ],
    )
    lists = extract_wordlists(path, "en")
    by_pos = {wl.pos: wl for wl in lists}
    assert by_pos["VERB"].lemmas == ("like",)
    assert by_pos["NOUN"].lemmas == ("dog",)
    assert by_pos["VERB"].language == "en"


def test_duplicate_lemmas_collapse(tmp_path):
    path = write_conllu(
        tmp_path,
        [[conllu_line(1, "go", "go", "VERB"), conllu_line(2, "went", "go", "VERB")]],
    )
    (verbs,) = extract_wordlists(path, "en")
    assert verbs.lemmas == ("go",)


def test_non_target_tags_ignored(tmp_path):
    path = write_conllu(tmp_path, [[conllu_line(1, "red", "red", "ADJ")]])
    assert extract_wordlists(path, "en") == []


def test_multiword_ranges_and_empty_nodes_skipped(tmp_path):
    path = write_conllu(
        tmp_path,
        [
            [
                conllu_line("1-2", "del", "del", "ADP"),
                conllu_line(1, "de", "de", "ADP"),
                conllu_line(2, "el", "el", "DET"),
                conllu_line("2.1", "ghost", "ghost", "NOUN"),
            ]
        ],
    )
    by_pos = {wl.pos: wl for wl in extract_wordlists(path, "es")}
    assert by_pos["ADP"].lemmas == ("de",)
    assert "NOUN" not in by_pos
    assert "del" not in by_pos["ADP"].lemmas


def test_underscore_and_empty_lemmas_excluded(tmp_path):
    path = write_conllu(
        tmp_path,
        [[conllu_line(1, "x", "_", "NOUN"), conllu_line(2, "y", "", "NOUN"),
          conllu_line(3, "z", "zeta", "NOUN")]],
    )
    (nouns,) = extract_wordlists(path, "xx")
    assert nouns.lemmas == ("zeta",)


def test_malformed_line_skipped_with_line_number(tmp_path, caplog):
    path = tmp_path / "bad.conllu"
    path.write_text(
        conllu_line(1, "ok", "ok", "NOUN") + "\nbroken line\n\n", encoding="utf-8"
    )
    with caplog.at_level(logging.WARNING, logger="pedlex.corpus"):
        (nouns,) = extract_wordlists(path, "xx")
    assert nouns.lemmas == ("ok",)
    assert any("line 2" in rec.getMessage() for rec in caplog.records)


def test_zero_sentences_is_error(tmp_path):
    path = tmp_path / "empty.conllu"
    path.write_text("# a comment only\n\n", encoding="utf-8")
    with pytest.raises(ConlluError, match="no sentences"):
        extract_wordlists(path, "xx")


def test_extraction_order_independent(tmp_path):
    s1 = [conllu_line(1, "a", "alpha", "NOUN")]
    s2 = [conllu_line(1, "b", "beta", "NOUN")]
    first = extract_wordlists(write_conllu(tmp_path, [s1, s2], "f.conllu"), "xx")
    second = extract_wordlists(write_conllu(tmp_path, [s2, s1], "g.conllu"), "xx")
    assert first == second


def test_nfc_normalization_dedups(tmp_path):
    composed = "café"
    decomposed = "café"
    path = write_conllu(
        tmp_path,
        [[conllu_line(1, "x", composed, "NOUN"), conllu_line(2, "y", decomposed, "NOUN")]],
    )
    (nouns,) = extract_wordlists(path, "xx")
    assert nouns.lemmas == (composed,)


def test_all_ten_target_tags():
    assert TARGET_TAGS == (
        "ADP", "AUX", "CCONJ", "SCONJ", "DET", "PART", "PRON", "NOUN", "PROPN", "VERB",
    )


# ---------------------------------------------------------------- g2p


def test_devanagari_short_vowel_dropped_long_kept():
    assert convert_word("पिता", DEVANAGARI, "hi") == "pt̪a"


def test_perso_arabic_unwritten_short_vowels():
    assert convert_word("سلام", PERSO_ARABIC, "ar") == "sla:m"


def test_perso_arabic_diacritics_deleted():
    assert convert_word("سَلام", PERSO_ARABIC, "ar") == "sla:m"


def test_urdu_aspirate_digraph_longest_match():
    # the two-letter sequence wins over letter-by-letter t̪ + h
    assert convert_word("تھا", PERSO_ARABIC, "ur") == "t̪ʰa:"


def test_language_overrides_replace_base_rule():
    waw = "و"
    assert convert_word(waw, PERSO_ARABIC, "ar") == "w"
    assert convert_word(waw, PERSO_ARABIC, "fa") == "v"
    assert convert_word(waw, PERSO_ARABIC, "ur") == "ʋ"


def test_nukta_letter_decomposed_and_composed_agree():
    composed = "ड़"  # one codepoint
    decomposed = "ड़"
    assert convert_word(composed, DEVANAGARI, "hi") == "ɽ"
    assert convert_word(decomposed, DEVANAGARI, "hi") == "ɽ"


def test_unmapped_grapheme_raises():
    with pytest.raises(G2PError, match="unmapped"):
        convert_word("क٭", DEVANAGARI, "hi")


def test_g2p_convert_populates_ipa_and_drops():
    words = WordList(language="hi", pos="PRON", lemmas=("इ", "पिता", "पि٭"))
    converted = g2p_convert(words, DEVANAGARI)
    # इ is a lone short vowel (empty output) and पि٭ has an unmapped sign
    assert converted.ipa_by_lemma == {"पिता": "pt̪a"}
    assert converted.lemmas == words.lemmas


def test_g2p_drop_log_one_entry_per_word(caplog):
    words = WordList(language="hi", pos="PRON", lemmas=("इ", "उ"))
    with caplog.at_level(logging.WARNING, logger="pedlex.corpus"):
        g2p_convert(words, DEVANAGARI)
    dropped = [rec for rec in caplog.records if rec.getMessage().startswith("dropped")]
    assert len(dropped) == 2


def test_g2p_script_mismatch_rejected():
    words = WordList(language="hi", pos="PRON", lemmas=("पिता",))
    with pytest.raises(G2PError, match="devanagari"):
        g2p_convert(words, PERSO_ARABIC)


def test_g2p_determinism():
    words = WordList(language="ur", pos="PRON", lemmas=("سلام", "تھا"))
    assert g2p_convert(words, PERSO_ARABIC) == g2p_convert(words, PERSO_ARABIC)


def test_language_script_map_covers_six_languages():
    assert set(LANGUAGE_SCRIPTS) == {"ar", "fa", "ur", "hi", "mr", "sa"}


def test_g2p_table_requires_script(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("a\tb\n", encoding="utf-8")
    with pytest.raises(G2PError, match="script"):
        load_g2p_table(path)
    assert load_g2p_table(path, script="demo").script == "demo"


def test_g2p_table_rejects_duplicate_rule(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("# script=demo\na\tb\na\tc\n", encoding="utf-8")
    with pytest.raises(G2PError, match="duplicate"):
        load_g2p_table(path)


def test_g2p_empty_output_rule_deletes(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_text("# script=demo\na\tx\nb\t\n", encoding="utf-8")
    table = load_g2p_table(path)
    assert convert_word("aba", table) == "xx"


def greedy_convert(word, table, language=None):
    """The per-position longest-match loop, kept as the scanner's reference."""
    text = unicodedata.normalize("NFC", word)
    max_len = max((len(g) for g, _ in table.rules), default=0)
    out = []
    pos = 0
    while pos < len(text):
        emitted = None
        for length in range(min(max_len, len(text) - pos), 0, -1):
            chunk = text[pos : pos + length]
            if language is not None and (chunk, language) in table.rules:
                emitted = table.rules[(chunk, language)]
            elif (chunk, None) in table.rules:
                emitted = table.rules[(chunk, None)]
            if emitted is not None:
                pos += length
                break
        if emitted is None:
            raise G2PError(f"unmapped grapheme {text[pos]!r} at offset {pos} in {word!r}")
        out.append(emitted)
    return "".join(out)


def grapheme_text(table):
    """Random words of the table's graphemes, their prefixes and unmapped signs."""
    graphemes = sorted({g for g, _ in table.rules})
    prefixes = sorted({g[:k] for g in graphemes for k in range(1, len(g))})
    deletions = sorted({g for (g, _), ipa in table.rules.items() if ipa == ""})
    unmapped = ["٭", "x", ".", "*", "|"]
    assert deletions and prefixes and not set(unmapped) & set(graphemes)
    pieces = st.one_of(
        st.sampled_from(graphemes),
        st.sampled_from(prefixes),
        st.sampled_from(deletions),
        st.sampled_from(unmapped),
    )
    return st.lists(pieces, max_size=10).map("".join)


def g2p_outcome(fn):
    try:
        return fn()
    except G2PError as exc:
        return ("G2PError", str(exc))


# language None, each filtered language, and an unfiltered one per table
@pytest.mark.parametrize(
    "table, language",
    [
        (PERSO_ARABIC, None),
        (PERSO_ARABIC, "fa"),
        (PERSO_ARABIC, "ur"),
        (PERSO_ARABIC, "ar"),
        (DEVANAGARI, None),
        (DEVANAGARI, "hi"),
    ],
    ids=["pa-none", "pa-fa", "pa-ur", "pa-ar", "dev-none", "dev-hi"],
)
@given(data=st.data())
def test_scanner_matches_greedy_loop(table, language, data):
    word = data.draw(grapheme_text(table))
    expected = g2p_outcome(lambda: greedy_convert(word, table, language))
    assert g2p_outcome(lambda: convert_word(word, table, language)) == expected


def test_filtered_languages_of_bundled_tables():
    assert PERSO_ARABIC.languages() == ("fa", "ur")
    assert DEVANAGARI.languages() == ()


# ---------------------------------------------------------------- word-list files


def test_wordlist_roundtrip(tmp_path):
    words = WordList(
        language="ur",
        pos="PRON",
        lemmas=("آپ", "تم"),
        ipa_by_lemma={"آپ": "a:p", "تم": "t̪um"},
    )
    path = tmp_path / "ur_PRON.tsv"
    write_wordlist(words, path)
    assert read_wordlist(path) == words


def test_wordlist_without_ipa_roundtrip(tmp_path):
    words = WordList(language="xx", pos="NOUN", lemmas=("alpha", "beta"))
    path = tmp_path / "xx_NOUN.tsv"
    write_wordlist(words, path)
    loaded = read_wordlist(path)
    assert loaded.lemmas == words.lemmas
    assert loaded.ipa_by_lemma is None


def test_wordlist_requires_header(tmp_path):
    path = tmp_path / "w.tsv"
    path.write_text("lemma\tipa\n", encoding="utf-8")
    with pytest.raises(WordListError, match="header"):
        read_wordlist(path)


def test_wordlist_rejects_duplicate_lemma(tmp_path):
    path = tmp_path / "w.tsv"
    path.write_text("# lang=xx pos=NOUN\na\tx\na\ty\n", encoding="utf-8")
    with pytest.raises(WordListError, match="duplicate"):
        read_wordlist(path)


def test_ipa_strings_requires_g2p():
    words = WordList(language="xx", pos="NOUN", lemmas=("a",))
    with pytest.raises(WordListError, match="no IPA"):
        words.ipa_strings()


def test_ipa_strings_distinct_sorted():
    words = WordList(
        language="xx",
        pos="NOUN",
        lemmas=("a", "b", "c"),
        ipa_by_lemma={"a": "zz", "b": "aa", "c": "zz"},
    )
    assert words.ipa_strings() == ("aa", "zz")
