"""Corpus ingestion: CoNLL-U lemma extraction and rule-based word-to-IPA.

Lemma lists are built per UPOS tag from the LEMMA column, NFC-normalized and
de-duplicated. The grapheme-to-phoneme step walks each word left to right,
always consuming the longest grapheme sequence that has a rule; a rule with
an empty output deletes (that is how short-vowel signs are dropped). A rule
carrying a language filter replaces the unfiltered rule of the same grapheme
for that language. Words containing an unmapped grapheme, or coming out
empty, are dropped and logged rather than silently truncated.
"""

from __future__ import annotations

import logging
import unicodedata
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import filterfalse
from pathlib import Path

from .errors import ConlluError, G2PError, WordListError, open_lines, write_text
from .longest_match import LongestMatch

log = logging.getLogger("pedlex.corpus")

TARGET_TAGS = (
    "ADP",
    "AUX",
    "CCONJ",
    "SCONJ",
    "DET",
    "PART",
    "PRON",
    "NOUN",
    "PROPN",
    "VERB",
)

LANGUAGE_SCRIPTS = {
    "ar": "perso-arabic",
    "fa": "perso-arabic",
    "ur": "perso-arabic",
    "hi": "devanagari",
    "mr": "devanagari",
    "sa": "devanagari",
}

_N_COLUMNS = 10


@dataclass(frozen=True)
class WordList:
    """De-duplicated lemmas of one (language, PoS), with optional IPA forms.

    ``lemmas`` is kept sorted, as :func:`read_wordlist` reads them back, so
    the order a list was built in does not make it unequal. ``path`` is the
    file :func:`read_wordlist` read the list from, and None for a list built
    any other way.
    """

    language: str
    pos: str
    lemmas: tuple[str, ...]
    ipa_by_lemma: dict[str, str] | None = None
    path: Path | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "lemmas", tuple(sorted(self.lemmas)))

    def ipa_strings(self) -> tuple[str, ...]:
        """Distinct IPA strings, sorted; what list alignment operates on."""
        if self.ipa_by_lemma is None:
            raise WordListError(
                (f"{self.path}: " if self.path else "")
                + f"word list ({self.language}, {self.pos}) has no IPA; run g2p first"
            )
        return tuple(sorted(set(self.ipa_by_lemma.values())))

    def locate(self, ipa: str) -> str | None:
        """``<file> line <n>`` of the first row whose IPA is ``ipa``, found by
        reading the list's file again; None when that is not possible."""
        if self.path is None:
            return None
        try:
            with open_lines(self.path, WordListError, "word list") as lines:
                for lineno, line in lines:
                    fields = line.rstrip("\n").split("\t")
                    if len(fields) == 2 and fields[1] == ipa and not line.startswith("#"):
                        return f"{self.path} line {lineno}"
        except WordListError:
            pass  # the file went away or became unreadable after it was read
        return None


def extract_wordlists(conllu: str | Path, language: str) -> list[WordList]:
    """Per-tag lemma sets from a CoNLL-U file, sorted by tag.

    Multiword-token ranges and empty nodes are skipped; lines with the wrong
    column count are reported (with their line number) and skipped; lemmas
    "_" and "" are excluded, and so are lemmas that a word-list row cannot
    hold: those that begin with '#' (a comment) or are whitespace only (a
    blank line). One warning names them. A file with no sentences is an
    error.
    """
    path = Path(conllu)
    lemmas_by_tag: dict[str, set[str]] = {tag: set() for tag in TARGET_TAGS}
    nfc = unicodedata.normalize
    sentences = 0
    in_sentence = False
    with open_lines(path, ConlluError, "CoNLL-U file") as lines:
        for lineno, line in lines:
            if line.isspace():
                if in_sentence:
                    sentences += 1
                    in_sentence = False
                continue
            if line[0] == "#":  # the file iterator yields no empty line
                continue
            tabs = line.count("\t")
            if tabs != _N_COLUMNS - 1:
                log.warning(
                    "%s line %d: expected 10 columns, got %d; line skipped",
                    path,
                    lineno,
                    tabs + 1,
                )
                continue
            in_sentence = True
            token_id, _form, lemma, upos, _rest = line.split("\t", 4)
            if "-" in token_id or "." in token_id:
                continue  # multiword-token range / empty node
            lemmas = lemmas_by_tag.get(upos)
            if lemmas is None or lemma == "_" or not lemma:
                continue
            lemmas.add(nfc("NFC", lemma))
    if in_sentence:
        sentences += 1
    if sentences == 0:
        raise ConlluError(f"{path}: no sentences found")
    lists = []
    left_out: set[str] = set()
    for tag, lemmas in sorted(lemmas_by_tag.items()):
        blank = set(filter(str.isspace, lemmas))
        lemmas -= blank
        ordered = sorted(lemmas)
        comments = comment_span(ordered)
        left_out.update(blank, ordered[comments])
        del ordered[comments]
        if ordered:
            lists.append(WordList(language=language, pos=tag, lemmas=tuple(ordered)))
    if left_out:
        log.warning(
            "%s: left out %d lemmas that a word list would read as comments or blank lines: %s",
            path,
            len(left_out),
            ", ".join(map(repr, sorted(left_out))),
        )
    return lists


def comment_span(lemmas: list[str]) -> slice:
    """The lemmas of sorted ``lemmas`` that begin with '#', which a word-list
    row reads as a comment; found by bisection, so that a check costs no
    pass over the lemmas."""
    return slice(bisect_left(lemmas, "#"), bisect_left(lemmas, "$"))


@dataclass(frozen=True)
class G2PTable:
    """Ordered longest-match grapheme rules for one script.

    ``rules`` maps (grapheme, language-filter-or-None) to an IPA string;
    an empty string deletes the grapheme.
    """

    script: str
    rules: dict[tuple[str, str | None], str]
    _scanners: dict[str | None, LongestMatch[str]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def scanner(self, language: str | None) -> LongestMatch[str]:
        """Longest-match scanner over the rules that apply to ``language``.

        The language's filtered rules replace the unfiltered ones of the same
        grapheme. Built on first use and kept for the table's lifetime.
        """
        scanner = self._scanners.get(language)
        if scanner is None:
            merged = {g: ipa for (g, lang), ipa in self.rules.items() if lang is None}
            if language is not None:
                merged.update(
                    (g, ipa) for (g, lang), ipa in self.rules.items() if lang == language
                )
            scanner = self._scanners[language] = LongestMatch(merged)
        return scanner


def load_g2p_table(path: str | Path, script: str | None = None) -> G2PTable:
    """Load ``grapheme<TAB>ipa[<TAB>language]`` rules.

    '#' lines are comments; a ``# script=<name>`` comment declares the script
    (a ``script`` argument overrides it). Graphemes are NFC-normalized so
    composed and decomposed spellings of the same letter match. An IPA or
    language field may not hold whitespace: no word with whitespace is
    tokenized, and no list header's ``lang=`` holds any.
    """
    path = Path(path)
    rules: dict[tuple[str, str | None], str] = {}
    declared = None
    with open_lines(path, G2PError, "G2P table") as lines:
        for lineno, line in lines:
            line = line.rstrip("\n")
            if "\t" not in line and not line.strip():
                continue  # a blank line; one with a tab is a rule, " <TAB>" maps a space
            if line.lstrip().startswith("#"):
                stripped = line.lstrip("# ").strip()
                if stripped.startswith("script="):
                    declared = stripped.split("=", 1)[1].strip()
                continue
            fields = line.split("\t")
            if len(fields) not in (2, 3):
                raise G2PError(
                    f"{path} line {lineno}: expected 'grapheme<TAB>ipa[<TAB>language]'"
                )
            grapheme = unicodedata.normalize("NFC", fields[0])
            if not grapheme:
                raise G2PError(f"{path} line {lineno}: empty grapheme")
            ipa = fields[1]
            lang = fields[2] if len(fields) == 3 and fields[2] else None
            for name, value in (("IPA", ipa), ("language", lang or "")):
                if any(c.isspace() for c in value):
                    raise G2PError(f"{path} line {lineno}: whitespace in {name} {value!r}")
            key = (grapheme, lang)
            if key in rules:
                raise G2PError(
                    f"{path} line {lineno}: duplicate rule for {grapheme!r}"
                    + (f" [{lang}]" if lang else "")
                )
            rules[key] = ipa
    if not rules:
        raise G2PError(f"{path}: no rules")
    resolved_script = script or declared
    if not resolved_script:
        raise G2PError(f"{path}: script not declared; add '# script=<name>' or pass one")
    return G2PTable(script=resolved_script, rules=rules)


def convert_word(word: str, table: G2PTable, language: str | None = None) -> str:
    """Convert one word; raises G2PError at the first unmapped grapheme.

    Longest grapheme sequence wins at each position; at equal length a rule
    filtered to ``language`` beats the unfiltered one.
    """
    text = unicodedata.normalize("NFC", word)
    out, end = table.scanner(language).scan(text)
    if end < len(text):
        raise G2PError(f"unmapped grapheme {text[end]!r} at offset {end} in {word!r}")
    return "".join(out)


def g2p_convert(words: WordList, table: G2PTable) -> WordList:
    """Populate a word list's IPA forms via the table.

    Words that hit an unmapped grapheme or convert to the empty string are
    dropped (left out of the IPA mapping): one warning per list gives the
    count for each reason, and each dropped word is logged at DEBUG. Raises
    G2PError when the table's script does not serve the list's language.
    """
    script = LANGUAGE_SCRIPTS.get(words.language)
    if script is not None and script != table.script:
        raise G2PError(
            f"language {words.language!r} is written in {script}, "
            f"but the table is for {table.script}"
        )
    ipa_by_lemma: dict[str, str] = {}
    reasons: dict[str, int] = {}
    for lemma in words.lemmas:
        try:
            ipa = convert_word(lemma, table, language=words.language)
        except G2PError as exc:
            reason, detail = "with an unmapped grapheme", str(exc)
        else:
            if ipa:
                ipa_by_lemma[lemma] = ipa
                continue
            reason = detail = "empty after conversion"
        reasons[reason] = reasons.get(reason, 0) + 1
        log.debug("dropped %r (%s, %s): %s", lemma, words.language, words.pos, detail)
    if reasons:
        log.warning(
            "g2p dropped %d of %d words of (%s, %s): %s",
            sum(reasons.values()),
            len(words.lemmas),
            words.language,
            words.pos,
            ", ".join(f"{count} {reason}" for reason, count in reasons.items()),
        )
    # the converted list is no longer the content of the file it came from
    return replace(words, ipa_by_lemma=ipa_by_lemma, path=None)


def check_header_value(name: str, value: str) -> None:
    """Raise WordListError unless ``value`` can be a list header's lang= or
    pos= value and a file-name part: non-empty, with no comma (the report's
    separator), whitespace (the header's) or path separator."""
    if not value or any(c in ",/\\" or c.isspace() for c in value):
        raise WordListError(
            f"{name} must be non-empty and hold no comma, whitespace or path "
            f"separator, got {value!r}"
        )


def write_wordlist(words: WordList, path: str | Path) -> None:
    """Write a ``# lang=.. pos=..`` header plus one row per lemma: ``lemma``
    in an unconverted list, ``lemma<TAB>ipa`` in a converted one, where a
    lemma that g2p dropped has an empty IPA field. A language or tag that
    ``check_header_value`` rejects raises WordListError and writes nothing,
    and so does a list that would not read back equal: a lemma that begins
    with '#' (a comment), is empty or whitespace only (a blank line), is not
    NFC (it would read back composed) or occurs twice; a lemma or IPA string
    that holds a tab, CR or LF, or a lone surrogate (UTF-8 cannot encode
    it); IPA for a string that is not a lemma, or an empty IPA string (it
    reads back as a lemma g2p dropped); and a converted list without lemmas
    (it reads back unconverted). The error names the
    lemma, or the list for the last. A path that cannot be written raises
    WordListError naming it."""
    check_header_value(f"{path}: header lang=", words.language)
    check_header_value(f"{path}: header pos=", words.pos)
    lemmas = words.lemmas  # sorted
    comments = lemmas[comment_span(lemmas)]
    if comments:
        raise WordListError(
            f"{path}: lemma {comments[0]!r} begins with '#', so its row would read as a comment"
        )
    blank = "" if lemmas[:1] == ("",) else next(filter(str.isspace, lemmas), None)
    if blank is not None:
        raise WordListError(
            f"{path}: lemma {blank!r} is empty or whitespace only, so its row would not read back"
        )
    # per lemma: a nukta (NFC quick check "maybe") then normalizes its lemma alone
    bad = next(filterfalse(partial(unicodedata.is_normalized, "NFC"), lemmas), None)
    if bad is not None:
        raise WordListError(f"{path}: lemma {bad!r} is not NFC, so it would read back composed")
    distinct = set(lemmas)
    if len(distinct) < len(lemmas):
        twice = next(a for a, b in zip(lemmas, lemmas[1:]) if a == b)
        raise WordListError(f"{path}: lemma {twice!r} occurs twice, which the reader refuses")
    ipa = words.ipa_by_lemma
    if ipa is not None:
        if not ipa.keys() <= distinct:
            raise WordListError(
                f"{path}: {min(ipa.keys() - distinct)!r} has IPA but is not a lemma, so the IPA "
                "would not be written"
            )
        if "" in ipa.values():
            raise WordListError(
                f"{path}: lemma {min(k for k, v in ipa.items() if not v)!r} has an empty IPA "
                "string, which reads back as a lemma g2p dropped"
            )
        if not lemmas:
            raise WordListError(
                f"{path}: list ({words.language}, {words.pos}) is converted but has no "
                "lemmas, so it would read back unconverted"
            )
    lines = [f"# lang={words.language} pos={words.pos}"]
    for lemma in lemmas:
        lines.append(lemma if ipa is None else f"{lemma}\t{ipa.get(lemma, '')}")
    text = "\n".join(lines) + "\n"
    # every row ends at its own LF and a converted row holds one tab, so the
    # counts over the whole text match exactly when no field holds a break
    tabs = 0 if ipa is None else len(lemmas)
    if text.count("\n") != len(lines) or text.count("\t") != tabs or "\r" in text:
        k = next(k for k, row in enumerate(lines[1:])
                 if row.count("\t") != (ipa is not None) or "\r" in row or "\n" in row)
        raise WordListError(
            f"{path}: lemma {lemmas[k]!r} or its IPA holds a tab, CR or LF, which would "
            "split its row"
        )
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:  # a lone surrogate: refused before the file is opened
        row = text.count("\n", 0, exc.start)
        where = f"lemma {lemmas[row - 1]!r} or its IPA" if row else "the header"
        raise WordListError(f"{path}: {where} holds {exc.object[exc.start]!r}, which UTF-8 "
                            "cannot encode") from None
    write_text(path, text, WordListError, "word list")


def read_wordlist(path: str | Path) -> WordList:
    """Read a word-list file written by :func:`write_wordlist`.

    The list counts as converted when any row has an IPA field, even an
    empty one; rows with an empty IPA field are lemmas g2p dropped. A header
    value that ``check_header_value`` rejects, so that ``write_wordlist``
    could not write it back, raises WordListError naming its line.
    """
    path = Path(path)
    language = pos = None
    lemmas: set[str] = set()
    ipa_by_lemma: dict[str, str] = {}
    saw_ipa = False
    with open_lines(path, WordListError, "word list") as lines:
        for lineno, line in lines:
            if line.isspace():
                continue
            if line[0] == "#":
                for part in line.lstrip("# ").split():
                    key, sep, value = part.partition("=")
                    if not sep or key not in ("lang", "pos"):
                        continue
                    check_header_value(f"{path} line {lineno}: header {key}=", value)
                    if key == "lang":
                        language = value
                    else:
                        pos = value
                continue
            fields = line.rstrip("\n").split("\t")
            if len(fields) > 2:
                raise WordListError(f"{path} line {lineno}: expected 'lemma[<TAB>ipa]'")
            lemma = unicodedata.normalize("NFC", fields[0])
            if not lemma:
                raise WordListError(f"{path} line {lineno}: empty lemma")
            if lemma in lemmas:
                raise WordListError(f"{path} line {lineno}: duplicate lemma {lemma!r}")
            lemmas.add(lemma)
            if len(fields) == 2:
                saw_ipa = True
                if fields[1]:
                    ipa_by_lemma[lemma] = fields[1]
    if language is None or pos is None:
        raise WordListError(f"{path}: missing '# lang=<id> pos=<TAG>' header")
    return WordList(
        language=language,
        pos=pos,
        lemmas=tuple(lemmas),
        ipa_by_lemma=ipa_by_lemma if saw_ipa else None,
        path=path,
    )
