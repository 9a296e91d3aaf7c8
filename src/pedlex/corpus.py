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
from dataclasses import dataclass, field, replace
from pathlib import Path

from .errors import ConlluError, G2PError, WordListError
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

_ID, _FORM, _LEMMA, _UPOS = 0, 1, 2, 3
_N_COLUMNS = 10


@dataclass(frozen=True)
class WordList:
    """De-duplicated lemmas of one (language, PoS), with optional IPA forms."""

    language: str
    pos: str
    lemmas: tuple[str, ...]
    ipa_by_lemma: dict[str, str] | None = None

    def ipa_strings(self) -> tuple[str, ...]:
        """Distinct IPA strings, sorted; what list alignment operates on."""
        if self.ipa_by_lemma is None:
            raise WordListError(
                f"word list ({self.language}, {self.pos}) has no IPA; run g2p first"
            )
        return tuple(sorted(set(self.ipa_by_lemma.values())))


def extract_wordlists(conllu: str | Path, language: str) -> list[WordList]:
    """Per-tag lemma sets from a CoNLL-U file, sorted by tag.

    Multiword-token ranges and empty nodes are skipped; lines with the wrong
    column count are reported (with their line number) and skipped; lemmas
    "_" and "" are excluded. A file with no sentences is an error.
    """
    path = Path(conllu)
    if not path.exists():
        raise ConlluError(f"CoNLL-U file not found: {path}")
    lemmas_by_tag: dict[str, set[str]] = {}
    sentences = 0
    in_sentence = False
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
            if len(columns) != _N_COLUMNS:
                log.warning(
                    "%s line %d: expected 10 columns, got %d; line skipped",
                    path,
                    lineno,
                    len(columns),
                )
                continue
            in_sentence = True
            token_id = columns[_ID]
            if "-" in token_id or "." in token_id:
                continue  # multiword-token range / empty node
            upos = columns[_UPOS]
            if upos not in TARGET_TAGS:
                continue
            lemma = unicodedata.normalize("NFC", columns[_LEMMA])
            if lemma in ("", "_"):
                continue
            lemmas_by_tag.setdefault(upos, set()).add(lemma)
    if in_sentence:
        sentences += 1
    if sentences == 0:
        raise ConlluError(f"{path}: no sentences found")
    return [
        WordList(language=language, pos=tag, lemmas=tuple(sorted(lemmas)))
        for tag, lemmas in sorted(lemmas_by_tag.items())
    ]


@dataclass(frozen=True)
class G2PTable:
    """Ordered longest-match grapheme rules for one script.

    ``rules`` maps (grapheme, language-filter-or-None) to an IPA string;
    an empty string deletes the grapheme.
    """

    script: str
    rules: dict[tuple[str, str | None], str]
    source: str = field(default="", compare=False)
    _scanners: dict[str | None, LongestMatch[str]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def languages(self) -> tuple[str, ...]:
        return tuple(sorted({lang for _, lang in self.rules if lang}))

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
    composed and decomposed spellings of the same letter match.
    """
    path = Path(path)
    if not path.exists():
        raise G2PError(f"G2P table not found: {path}")
    rules: dict[tuple[str, str | None], str] = {}
    declared = None
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
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
    return G2PTable(script=resolved_script, rules=rules, source=str(path))


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
    dropped (left out of the IPA mapping) and logged once each with the
    reason. Raises G2PError when the table's script does not serve the
    list's language, or warns when every word was dropped.
    """
    script = LANGUAGE_SCRIPTS.get(words.language)
    if script is not None and script != table.script:
        raise G2PError(
            f"language {words.language!r} is written in {script}, "
            f"but the table is for {table.script}"
        )
    ipa_by_lemma: dict[str, str] = {}
    for lemma in words.lemmas:
        try:
            ipa = convert_word(lemma, table, language=words.language)
        except G2PError as exc:
            log.warning("dropped %r (%s, %s): %s", lemma, words.language, words.pos, exc)
            continue
        if not ipa:
            log.warning(
                "dropped %r (%s, %s): empty after conversion",
                lemma,
                words.language,
                words.pos,
            )
            continue
        ipa_by_lemma[lemma] = ipa
    if words.lemmas and not ipa_by_lemma:
        log.warning(
            "all %d words of (%s, %s) were dropped by g2p",
            len(words.lemmas),
            words.language,
            words.pos,
        )
    return replace(words, ipa_by_lemma=ipa_by_lemma)


def write_wordlist(words: WordList, path: str | Path) -> None:
    """Write ``# lang=.. pos=..`` header plus one ``lemma[<TAB>ipa]`` row per lemma."""
    lines = [f"# lang={words.language} pos={words.pos}"]
    ipa = words.ipa_by_lemma or {}
    for lemma in sorted(words.lemmas):
        if lemma in ipa:
            lines.append(f"{lemma}\t{ipa[lemma]}")
        else:
            lines.append(lemma)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_wordlist(path: str | Path) -> WordList:
    """Read a word-list file written by :func:`write_wordlist`."""
    path = Path(path)
    if not path.exists():
        raise WordListError(f"word list not found: {path}")
    language = pos = None
    lemmas: set[str] = set()
    ipa_by_lemma: dict[str, str] = {}
    saw_ipa = False
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            if line.startswith("#"):
                for part in line.lstrip("# ").split():
                    if part.startswith("lang="):
                        language = part.split("=", 1)[1]
                    elif part.startswith("pos="):
                        pos = part.split("=", 1)[1]
                continue
            fields = line.split("\t")
            if len(fields) > 2:
                raise WordListError(
                    f"{path} line {lineno}: expected 'lemma[<TAB>ipa]'"
                )
            lemma = unicodedata.normalize("NFC", fields[0])
            if not lemma:
                raise WordListError(f"{path} line {lineno}: empty lemma")
            if lemma in lemmas:
                raise WordListError(f"{path} line {lineno}: duplicate lemma {lemma!r}")
            lemmas.add(lemma)
            if len(fields) == 2 and fields[1]:
                ipa_by_lemma[lemma] = fields[1]
                saw_ipa = True
    if language is None or pos is None:
        raise WordListError(f"{path}: missing '# lang=<id> pos=<TAG>' header")
    return WordList(
        language=language,
        pos=pos,
        lemmas=tuple(sorted(lemmas)),
        ipa_by_lemma=ipa_by_lemma if saw_ipa else None,
    )
