import logging
import re
import unicodedata
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

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


def test_lemmas_a_word_list_reads_as_comments_left_out(tmp_path, caplog):
    # a word-list row that begins with '#' is a comment, so such a lemma
    # would vanish on write and read; one warning per file names them all
    path = write_conllu(
        tmp_path,
        [[conllu_line(1, "x", "#x", "NOUN"), conllu_line(2, "y", "ab", "NOUN"),
          conllu_line(3, "z", "#", "PROPN"), conllu_line(4, "w", "#x", "PROPN"),
          conllu_line(5, "v", "a#", "PROPN")]],
    )
    with caplog.at_level(logging.WARNING, logger="pedlex.corpus"):
        lists = extract_wordlists(path, "xx")
    assert [(wl.pos, wl.lemmas) for wl in lists] == [("NOUN", ("ab",)), ("PROPN", ("a#",))]
    assert [rec.getMessage() for rec in caplog.records] == [
        f"{path}: left out 2 lemmas that a word list would read as comments or blank lines: "
        "'#', '#x'"
    ]


def test_whitespace_only_lemmas_left_out(tmp_path, caplog):
    # a whitespace-only row reads as a blank line, so such a lemma would
    # vanish on write and read; the one warning names them with the '#' ones
    path = write_conllu(
        tmp_path,
        [[conllu_line(1, "x", " ", "NOUN"), conllu_line(2, "y", "ab", "NOUN"),
          conllu_line(3, "z", "\u3000", "VERB"), conllu_line(4, "w", "#", "VERB"),
          conllu_line(5, "v", " a", "VERB")]],
    )
    with caplog.at_level(logging.WARNING, logger="pedlex.corpus"):
        lists = extract_wordlists(path, "xx")
    assert [(wl.pos, wl.lemmas) for wl in lists] == [("NOUN", ("ab",)), ("VERB", (" a",))]
    assert [rec.getMessage() for rec in caplog.records] == [
        f"{path}: left out 3 lemmas that a word list would read as comments or blank lines: "
        "' ', '#', '\\u3000'"
    ]


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


def reference_extract(path, language):
    """The extraction loop as it was before the one-split rewrite, kept as the
    reference: per-tag lemmas (or the error) and the warning texts."""
    lemmas_by_tag = {}
    sentences = 0
    in_sentence = False
    warnings = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.rstrip("\n")
            if not line.strip():
                if in_sentence:
                    sentences += 1
                    in_sentence = False
                continue
            if line.startswith("#"):
                continue
            columns = line.split("\t")
            if len(columns) != 10:
                warnings.append(
                    f"{path} line {lineno}: expected 10 columns, got {len(columns)}; "
                    "line skipped"
                )
                continue
            in_sentence = True
            token_id = columns[0]
            if "-" in token_id or "." in token_id:
                continue
            upos = columns[3]
            if upos not in TARGET_TAGS:
                continue
            lemma = unicodedata.normalize("NFC", columns[2])
            if lemma in ("", "_"):
                continue
            lemmas_by_tag.setdefault(upos, set()).add(lemma)
    if in_sentence:
        sentences += 1
    if sentences == 0:
        return ("ConlluError", f"{path}: no sentences found"), warnings
    left_out = {lemma for lemmas in lemmas_by_tag.values() for lemma in lemmas
                if lemma.startswith("#") or lemma.isspace()}
    if left_out:
        warnings.append(f"{path}: left out {len(left_out)} lemmas that a word list would "
                        f"read as comments or blank lines: "
                        f"{', '.join(map(repr, sorted(left_out)))}")
        lemmas_by_tag = {tag: kept for tag, lemmas in lemmas_by_tag.items()
                         if (kept := lemmas - left_out)}
    lists = [
        (language, tag, tuple(sorted(lemmas))) for tag, lemmas in sorted(lemmas_by_tag.items())
    ]
    return lists, warnings


class Collect(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def extract_outcome(path, language):
    handler = Collect()
    logger = logging.getLogger("pedlex.corpus")
    logger.addHandler(handler)
    try:
        lists = [(w.language, w.pos, w.lemmas) for w in extract_wordlists(path, language)]
    except ConlluError as exc:
        lists = ("ConlluError", str(exc))
    finally:
        logger.removeHandler(handler)
    return lists, handler.messages


@st.composite
def conllu_row(draw):
    columns = [
        draw(st.sampled_from(["1", "2", "10", "1-2", "1.1"])),
        "form",
        draw(st.sampled_from(["_", "", "ab", "a b", "café", "cafe\u0301", "e\u0301", "é", "#",
                              "#ab", " ", "\u3000 "])),
        draw(st.sampled_from(["NOUN", "VERB", "PRON", "PROPN", "PUNCT", "noun", ""])),
        "_", "_", "0", "root", "_",
        draw(st.sampled_from(["_", "", "  ", "SpaceAfter=No"])),
    ]
    # wrong column counts: a column short, or one or two too many
    width = draw(st.sampled_from([10] * 6 + [9, 11, 12, 1]))
    return "\t".join((columns + ["x", "y"])[:width])


CONLLU_LINES = st.one_of(
    conllu_row(),
    st.sampled_from(["", " ", "\t", " \t ", "# sent_id = 1", "#", "# a\tb", "#\t" * 9]),
)


@given(
    lines=st.lists(st.tuples(CONLLU_LINES, st.sampled_from(["\n", "\r\n", "\r"])), max_size=14),
    last_newline=st.booleans(),
)
def test_extract_matches_reference_loop(tmp_path_factory, lines, last_newline):
    text = "".join(line + end for line, end in lines)
    if lines and not last_newline:
        text = text[: -len(lines[-1][1])]
    path = tmp_path_factory.getbasetemp() / "differential.conllu"
    path.write_bytes(text.encode("utf-8"))
    assert extract_outcome(path, "xx") == reference_extract(path, "xx")


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


def test_g2p_drop_log_one_warning_per_list(caplog):
    # इ and उ are lone short vowels (empty output), पि٭ has an unmapped sign
    words = WordList(language="hi", pos="PRON", lemmas=("इ", "उ", "पि٭", "पिता"))
    with caplog.at_level(logging.DEBUG, logger="pedlex.corpus"):
        g2p_convert(words, DEVANAGARI)
    warnings = [rec.getMessage() for rec in caplog.records if rec.levelno == logging.WARNING]
    assert warnings == [
        "g2p dropped 3 of 4 words of (hi, PRON): 2 empty after conversion, "
        "1 with an unmapped grapheme"
    ]
    per_word = [rec.getMessage() for rec in caplog.records if rec.levelno == logging.DEBUG]
    assert per_word == [
        "dropped 'इ' (hi, PRON): empty after conversion",
        "dropped 'उ' (hi, PRON): empty after conversion",
        "dropped 'पि٭' (hi, PRON): unmapped grapheme '٭' at offset 2 in 'पि٭'",
    ]


def test_g2p_keeping_every_word_logs_nothing(caplog):
    with caplog.at_level(logging.DEBUG, logger="pedlex.corpus"):
        g2p_convert(WordList(language="hi", pos="PRON", lemmas=("पिता",)), DEVANAGARI)
    assert caplog.records == []


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


@pytest.mark.parametrize("row, field", [
    ("ا\ta ", "IPA 'a '"),
    ("ا\ta b", "IPA 'a b'"),
    ("ا\ta\tur ", "language 'ur '"),
    ("ا\ta\t ", "language ' '"),
])
def test_g2p_table_rejects_whitespace_in_ipa_or_language(tmp_path, row, field):
    path = tmp_path / "t.tsv"
    path.write_text(f"# script=demo\nب\tb\n{row}\n", encoding="utf-8")
    with pytest.raises(G2PError, match=f"^{path} line 3: whitespace in {field}$"):
        load_g2p_table(path)


def test_g2p_table_keeps_a_rule_for_a_space(tmp_path):
    # graphemes may hold whitespace: a rule for a space serves multiword
    # lemmas, also one that deletes it from a row " <TAB>" of whitespace
    # only; a tab alone is a rule without a grapheme, refused with its line
    path = tmp_path / "t.tsv"
    for space, converted in (" \ty", "xyx"), (" \t", "xx"):
        path.write_text(f"# script=demo\na\tx\n{space}\n\n", encoding="utf-8")
        assert convert_word("a a", load_g2p_table(path)) == converted
    path.write_text("# script=demo\na\tx\n\t\n", encoding="utf-8")
    with pytest.raises(G2PError, match=f"^{path} line 3: empty grapheme$"):
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
    assert sorted({lang for _, lang in PERSO_ARABIC.rules if lang}) == ["fa", "ur"]
    assert not any(lang for _, lang in DEVANAGARI.rules)


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


def test_wordlist_dropped_lemmas_roundtrip(tmp_path):
    # g2p dropped some or all lemmas: the list stays converted
    path = tmp_path / "ur_PROPN.tsv"
    for ipa_by_lemma in ({"Ali": "ali"}, {}):
        words = WordList("ur", "PROPN", ("Ali", "Bob"), ipa_by_lemma=ipa_by_lemma)
        write_wordlist(words, path)
        assert read_wordlist(path) == words
    assert path.read_text(encoding="utf-8") == "# lang=ur pos=PROPN\nAli\t\nBob\t\n"


def test_write_wordlist_rejects_a_lemma_that_reads_as_a_comment(tmp_path):
    words = WordList("ur", "NOUN", ("#x", "ab"), {"#x": "x", "ab": "ab"})
    path = tmp_path / "list.tsv"
    with pytest.raises(WordListError, match="lemma '#x' begins with '#'"):
        write_wordlist(words, path)
    assert not path.exists()


@pytest.mark.parametrize("ipa", [None, {"ab": "ab"}])
@pytest.mark.parametrize("lemma", ["", " ", "\t", "\u3000 \x0b"])
def test_write_wordlist_rejects_an_empty_or_whitespace_only_lemma(tmp_path, lemma, ipa):
    # its row would read as a blank line, and the lemma would vanish, or as
    # a row with an empty lemma, which the reader refuses
    path = tmp_path / "list.tsv"
    with pytest.raises(WordListError,
                       match=f"lemma {re.escape(repr(lemma))} is empty or whitespace only"):
        write_wordlist(WordList("ur", "NOUN", (lemma, "ab"), ipa), path)
    assert not path.exists()


@pytest.mark.parametrize("lemmas, ipa, named", [
    (("a\tb", "ab"), None, "a\tb"),  # would read back as lemma 'a' with IPA 'b'
    (("a\tb", "ab"), {"a\tb": "ab", "ab": "ab"}, "a\tb"),
    (("ab", "c\nd"), None, "c\nd"),
    (("ab", "cd\r"), {"ab": "ab"}, "cd\r"),
    (("ab", "cd"), {"ab": "a\tb", "cd": "cd"}, "ab"),
    (("ab", "cd"), {"ab": "ab", "cd": "c\nd"}, "cd"),
    (("ab", "cd"), {"ab": "ab", "cd": "\r"}, "cd"),
])
def test_write_wordlist_rejects_a_tab_cr_or_lf_in_a_field(tmp_path, lemmas, ipa, named):
    path = tmp_path / "list.tsv"
    with pytest.raises(WordListError, match=f"lemma {re.escape(repr(named))} or its IPA holds"):
        write_wordlist(WordList("ur", "NOUN", lemmas, ipa), path)
    assert not path.exists()


@pytest.mark.parametrize("ipa", [None, {"ab": "ab"}])
def test_write_wordlist_rejects_a_lemma_that_is_not_nfc(tmp_path, ipa):
    # the reader composes a lemma, so a decomposed one would read back
    # unequal to the list written; IPA strings round-trip as written
    nfd = unicodedata.normalize("NFD", "café")
    path = tmp_path / "list.tsv"
    with pytest.raises(WordListError, match=f"lemma {re.escape(repr(nfd))} is not NFC"):
        write_wordlist(WordList("fr", "NOUN", ("ab", nfd), ipa), path)
    assert not path.exists()
    words = WordList("fr", "NOUN", ("ab", "café"), {"ab": nfd, "café": nfd})
    write_wordlist(words, path)
    assert read_wordlist(path) == words


@pytest.mark.parametrize("words, named", [
    # an empty IPA string reads back as a lemma g2p dropped
    (WordList("ur", "NOUN", ("ab",), {"ab": ""}), "lemma 'ab' has an empty IPA string"),
    # IPA of a string that is not a lemma gets no row, yet ipa_strings() aligns it
    (WordList("ur", "NOUN", ("ab",), {"ab": "ab", "zz": "zz"}), "'zz' has IPA but is not a lemma"),
    # a converted list without rows reads back unconverted
    (WordList("ur", "NOUN", (), {}), "list (ur, NOUN) is converted but has no lemmas"),
    # the reader refuses a lemma's second row
    (WordList("ur", "NOUN", ("ab", "ab"), {"ab": "ab"}), "lemma 'ab' occurs twice"),
    # a lone surrogate has no UTF-8 bytes, in a lemma or in its IPA
    (WordList("ur", "NOUN", ("ab", "\ud800")), "lemma '\\ud800' or its IPA holds"),
    (WordList("ur", "NOUN", ("ab", "cd"), {"ab": "ab", "cd": "c\udfff"}),
     "lemma 'cd' or its IPA holds '\\udfff'"),
])
def test_write_wordlist_refuses_a_list_that_would_read_back_unequal(tmp_path, words, named):
    path = tmp_path / "list.tsv"
    with pytest.raises(WordListError, match=re.escape(named)):
        write_wordlist(words, path)
    assert not path.exists()


def test_a_list_built_in_any_order_reads_back_equal(tmp_path):
    words = WordList("ur", "NOUN", ("cd", "ab"), {"ab": "ab"})
    assert words == WordList("ur", "NOUN", ("ab", "cd"), {"ab": "ab"})
    path = tmp_path / "list.tsv"
    write_wordlist(words, path)
    assert read_wordlist(path) == words


# text that hits the rows' separators, comments, blanks and NFC more often
# than arbitrary text alone does
ROW_TEXT = st.text(st.one_of(st.sampled_from("ab#\t\r\n \x0b\u3000\u0301\ufeff"),
                             st.characters()), max_size=4)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_a_written_list_reads_back_equal_or_is_refused(tmp_path_factory, data):
    # lemmas, IPA strings and stray IPA keys from arbitrary text, empty IPA
    # strings and empty lists included; a refused list names a lemma (or
    # the list) and leaves no file
    lemmas = data.draw(st.lists(ROW_TEXT, max_size=6), "lemmas")
    ipa = None
    if data.draw(st.booleans(), "converted"):
        keys = data.draw(st.lists(st.sampled_from(lemmas), unique=True), "keys") if lemmas else []
        keys += data.draw(st.lists(ROW_TEXT, max_size=2), "stray keys")
        ipa = {key: data.draw(st.one_of(st.just(""), ROW_TEXT), "ipa") for key in keys}
    words = WordList("ur", "NOUN", tuple(lemmas), ipa)
    path = tmp_path_factory.getbasetemp() / "roundtrip.tsv"
    path.unlink(missing_ok=True)
    try:
        write_wordlist(words, path)
    except WordListError as exc:
        named = [repr(text) for text in (*lemmas, *(ipa or ()))] + ["(ur, NOUN)"]
        assert any(name in str(exc) for name in named), str(exc)
        assert not path.exists()
    else:
        assert read_wordlist(path) == words


@pytest.mark.parametrize("ipa", [None, {" a": "a b", "a\x0bb": "\u3000"}])
def test_wordlist_with_inner_whitespace_roundtrips(tmp_path, ipa):
    words = WordList("ur", "NOUN", (" a", "a\x0bb", "c "), ipa)
    path = tmp_path / "list.tsv"
    write_wordlist(words, path)
    assert read_wordlist(path) == words


@pytest.mark.parametrize("value", ["", "a,b", "a b", "a\tb", "a/b", "../esc", "a\\b"])
@pytest.mark.parametrize("field", ["language", "pos"])
def test_write_wordlist_rejects_bad_header_value(tmp_path, field, value):
    words = WordList(language="ur", pos="PRON", lemmas=("تم",))
    path = tmp_path / "list.tsv"
    key = "lang=" if field == "language" else "pos="
    message = f"^{re.escape(str(path))}: header {key} must be non-empty and hold no comma"
    with pytest.raises(WordListError, match=message):
        write_wordlist(replace(words, **{field: value}), path)
    assert not path.exists()


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


@pytest.mark.parametrize(
    "header",
    ["# lang=hi,xx pos=PRON", "# lang= pos=", "# lang=xx pos=", "# lang=xx pos=PRON,NOUN",
     "# lang=a/b pos=NOUN", "# lang=xx pos=..\\esc"],
)
def test_wordlist_header_values_must_be_nonempty_without_comma(tmp_path, header):
    # a comma would add a field to the report's CSV rows, and the reader
    # takes no path separator, which write_wordlist could not write back
    path = tmp_path / "w.tsv"
    path.write_text(f"# comment\n{header}\na\tx\n", encoding="utf-8")
    with pytest.raises(WordListError, match=rf"^{re.escape(str(path))} line 2: header"):
        read_wordlist(path)


def test_wordlist_with_byte_order_mark_reads_like_without(tmp_path):
    plain = tmp_path / "plain.tsv"
    plain.write_text("# lang=xx pos=PRON\na\tx\n", encoding="utf-8")
    marked = tmp_path / "marked.tsv"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert read_wordlist(marked) == read_wordlist(plain)


def test_wordlist_keeps_its_file_out_of_equality(tmp_path):
    words = WordList("xx", "PRON", ("a", "b"), ipa_by_lemma={"a": "pa", "b": "pa"})
    path = tmp_path / "w.tsv"
    write_wordlist(words, path)
    loaded = read_wordlist(path)
    assert loaded == words and words.path is None and loaded.path == path
    assert loaded.locate("pa") == f"{path} line 2"
    assert loaded.locate("zz") is None and words.locate("pa") is None
    # a converted list no longer holds what its file holds
    assert g2p_convert(loaded, DEVANAGARI).path is None


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
