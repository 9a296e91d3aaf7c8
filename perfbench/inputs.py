"""Seeded synthetic inputs for the pedlex benchmark.

Everything comes from one integer seed through ``random.Random``, so the same
seed writes byte-identical files and another seed writes different ones. The
program under test only ever sees the files.

Lemmas are spelled with graphemes of the bundled g2p tables. Each lemma is a
skeleton of abstract sounds (see ``CONSONANTS``/``VOWELS``) realised in the
script of its language. A cognate shares one skeleton across the six
languages, with an occasional per-language sound change, so related lists
align closely and the DP bound can bite.
"""

from __future__ import annotations

import json
import random
import unicodedata
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

LANGUAGES = {
    "ar": "perso-arabic",
    "fa": "perso-arabic",
    "ur": "perso-arabic",
    "hi": "devanagari",
    "mr": "devanagari",
    "sa": "devanagari",
}
TAGS = ("ADP", "AUX", "CCONJ", "SCONJ", "DET", "PART", "PRON", "NOUN", "PROPN", "VERB")
OPEN_TAGS = ("NOUN", "PROPN", "VERB")
OTHER_TAGS = ("ADJ", "ADV", "NUM", "PUNCT")  # present in treebanks, ignored by extract

# Abstract sounds -> the IPA outputs that may spell them, most faithful first;
# each language uses the first one its g2p table can produce.
CONSONANTS = {
    "k": ("k",), "g": ("ɡ",), "c": ("tʃ",), "j": ("dʒ",), "t": ("t̪", "t"),
    "d": ("d̪", "d"), "T": ("ʈ", "t"), "D": ("ɖ", "d"), "p": ("p",), "b": ("b",),
    "m": ("m",), "n": ("n",), "r": ("r",), "R": ("ɽ", "r"), "l": ("l",),
    "S": ("ʃ",), "s": ("s",), "z": ("z",), "h": ("h",), "f": ("f",),
    "q": ("q",), "x": ("x",), "G": ("ɣ",), "y": ("j",), "v": ("ʋ", "v", "w"),
    "K": ("kʰ", "k"), "P": ("pʰ", "p"), "B": ("bʰ", "b"),
}
VOWELS = {
    "a": ("a", "ɒ:", "a:"), "i": ("i", "j"), "u": ("u", "ʋ", "v", "w"),
    "e": ("e", "e:", "j"), "o": ("o", "ʋ", "v", "w"),
}
_CONSONANT_KEYS = tuple(CONSONANTS)
_VOWEL_KEYS = tuple(VOWELS)

# lemmas per tag, scaled by the language's treebank size below; the sizes are
# fixed so that every seed asks for the same amount of work
TREEBANK_SCALE = {"ar": 1.15, "fa": 0.85, "ur": 1.0, "hi": 1.2, "mr": 0.9, "sa": 0.8}
CORPUS_SIZES = {
    "ADP": 30, "AUX": 16, "CCONJ": 10, "SCONJ": 16, "DET": 20, "PART": 12,
    "PRON": 36, "NOUN": 240, "PROPN": 130, "VERB": 170,
}
INGEST_SIZES = {
    "ADP": 40, "AUX": 24, "CCONJ": 12, "SCONJ": 24, "DET": 30, "PART": 18,
    "PRON": 50, "NOUN": 6000, "PROPN": 3000, "VERB": 3000,
}
CORPUS_COGNATE_SHARE = 0.35
INGEST_COGNATE_SHARE = 0.1
LATIN_PROPN = 3  # Latin-script names per language, dropped by g2p

# scripts/benchmark_pruning.py's alphabet, so that seed 1 rebuilds its cell
CELL_ALPHABET = (
    "p", "b", "m", "n", "k", "q", "s", "z", "f", "v", "x", "r", "l", "j", "w",
    "a", "e", "i", "o", "u", "ə", "ɛ", "ɔ", "æ", "ɑ",
)
CELL_SIZE = 1000


@dataclass
class Inputs:
    """Generated files plus what the generator knows about them.

    ``vocab`` maps (language, tag) to the lemmas written under that tag, which
    is exactly what extract must return. ``manifest`` is also written to
    ``manifest.json`` for the worker process.
    """

    directory: Path
    manifest: dict
    vocab: dict[tuple[str, str], set[str]]


def _combining(grapheme: str) -> bool:
    return unicodedata.category(grapheme[0]).startswith("M")


def spellings(table, language: str) -> dict[str, list[str]]:
    """IPA output -> graphemes producing it for ``language``, sorted."""
    out: dict[str, list[str]] = {}
    for (grapheme, rule_lang), ipa in table.rules.items():
        if not ipa or rule_lang not in (None, language):
            continue
        if rule_lang is None and (grapheme, language) in table.rules:
            continue  # overridden for this language
        out.setdefault(ipa, []).append(grapheme)
    return {ipa: sorted(gs) for ipa, gs in sorted(out.items())}


def _skeleton(rng: random.Random, min_len: int, max_len: int) -> list[str]:
    sounds = []
    vowel = rng.random() < 0.2
    for _ in range(rng.randint(min_len, max_len)):
        sounds.append(rng.choice(_VOWEL_KEYS if vowel else _CONSONANT_KEYS))
        if rng.random() < 0.75:
            vowel = not vowel
    return sounds


def _mutate(rng: random.Random, skeleton: list[str]) -> list[str]:
    out = list(skeleton)
    i = rng.randrange(len(out))
    out[i] = rng.choice(_VOWEL_KEYS if out[i] in VOWELS else _CONSONANT_KEYS)
    return out


def _spell(rng, skeleton, spelled: dict[str, list[str]], marks_after_consonant: bool) -> str:
    parts = []
    after_consonant = False
    for sound in skeleton:
        is_vowel = sound in VOWELS
        options = (VOWELS if is_vowel else CONSONANTS)[sound]
        graphemes = spelled[next(ipa for ipa in options if ipa in spelled)]
        marks = [g for g in graphemes if _combining(g)]
        letters = [g for g in graphemes if not _combining(g)] or graphemes
        use_marks = is_vowel and after_consonant and marks_after_consonant and marks
        parts.append(rng.choice(marks if use_marks else letters))
        after_consonant = not is_vowel
    return unicodedata.normalize("NFC", "".join(parts))


def _latin_name(rng: random.Random) -> str:
    letters = "".join(rng.choice("bdfklmnprstvz") + rng.choice("aeiou") for _ in range(3))
    return letters.capitalize()


def _vocabulary(rng, tables, sizes, cognate_share):
    """(language, tag) -> ordered distinct lemmas."""
    spelled = {
        lang: spellings(tables[script], lang) for lang, script in LANGUAGES.items()
    }
    vocab: dict[tuple[str, str], list[str]] = {}
    for tag in TAGS:
        lengths = (3, 8) if tag in OPEN_TAGS else (1, 4)
        pool = [
            _skeleton(rng, *lengths) for _ in range(int(sizes[tag] * cognate_share))
        ]
        for lang, script in LANGUAGES.items():
            marks = script == "devanagari"
            target = max(5, round(sizes[tag] * TREEBANK_SCALE[lang]))
            skeletons = [
                _mutate(rng, s) if rng.random() < 0.25 else s
                for s in pool
                if rng.random() < 0.7
            ]
            lemmas: dict[str, None] = {}
            for skeleton in skeletons:
                lemmas[_spell(rng, skeleton, spelled[lang], marks)] = None
            while len(lemmas) < target:
                lemmas[_spell(rng, _skeleton(rng, *lengths), spelled[lang], marks)] = None
            if tag == "PROPN":
                while len(lemmas) < target + LATIN_PROPN:
                    lemmas[_latin_name(rng)] = None
            vocab[(lang, tag)] = list(lemmas)
    return vocab, spelled


def _conllu(rng, lang, items, others) -> tuple[str, int]:
    """Treebank text with every (lemma, tag) once plus Zipfian repeats."""
    # closed classes are the frequent words, as in real text
    ranked = sorted(items, key=lambda it: it[1] in OPEN_TAGS)
    cum = list(accumulate(1.0 / (rank + 1) for rank in range(len(ranked))))
    tokens = list(ranked) + rng.choices(ranked, cum_weights=cum, k=2 * len(ranked))
    tokens += [(rng.choice(others), rng.choice(OTHER_TAGS)) for _ in range(len(tokens) // 5)]
    rng.shuffle(tokens)
    lines = []
    pos = sentence = 0
    while pos < len(tokens):
        sent = tokens[pos : pos + rng.randint(6, 14)]
        pos += len(sent)
        sentence += 1
        lines.append(f"# sent_id = {lang}-{sentence}")
        lines.append("# text = " + " ".join(lemma for lemma, _ in sent))
        for i, (lemma, tag) in enumerate(sent, 1):
            if sentence % 10 == 0 and i == 1 and len(sent) > 1:
                lines.append(f"1-2\t{lemma}{sent[1][0]}\t_\t_\t_\t_\t_\t_\t_\t_")
            head, deprel = (0, "root") if i == 1 else (1, "dep")
            lines.append(f"{i}\t{lemma}\t{lemma}\t{tag}\t_\t_\t{head}\t{deprel}\t_\t_")
        lines.append("")
    return "\n".join(lines) + "\n", len(tokens)


def _treebanks(seed, tables, out_dir, sizes, cognate_share, workload) -> Inputs:
    rng = random.Random(f"{workload}:{seed}")
    vocab, spelled = _vocabulary(rng, tables, sizes, cognate_share)
    languages = {}
    for lang in LANGUAGES:
        items = [(lemma, tag) for tag in TAGS for lemma in vocab[(lang, tag)]]
        others = [
            _spell(rng, _skeleton(rng, 1, 6), spelled[lang], LANGUAGES[lang] == "devanagari")
            for _ in range(50)
        ]
        text, n_tokens = _conllu(rng, lang, items, others)
        name = f"{lang}.conllu"
        (out_dir / name).write_text(text, encoding="utf-8")
        languages[lang] = {"conllu": name, "script": LANGUAGES[lang], "tokens": n_tokens}
    manifest = {"workload": workload, "seed": seed, "languages": languages}
    return Inputs(out_dir, manifest, {key: set(v) for key, v in vocab.items()})


def _cell_list(lang: str, rng: random.Random) -> list[str]:
    words: set[str] = set()
    while len(words) < CELL_SIZE:
        words.add("".join(rng.choice(CELL_ALPHABET) for _ in range(rng.randint(4, 8))))
    return sorted(words)


def _cell1000(seed, out_dir) -> Inputs:
    lists = {}
    vocab = {}
    for lang, rng_seed in (("aa", 2 * seed - 1), ("bb", 2 * seed)):
        words = _cell_list(lang, random.Random(rng_seed))
        name = f"{lang}_NOUN.tsv"
        body = "".join(f"{w}\t{w}\n" for w in words)
        (out_dir / name).write_text(f"# lang={lang} pos=NOUN\n" + body, encoding="utf-8")
        lists[lang] = name
        vocab[(lang, "NOUN")] = set(words)
    manifest = {"workload": "cell1000", "seed": seed, "lists": lists}
    return Inputs(out_dir, manifest, vocab)


def generate(workload: str, seed: int, out_dir: Path, tables) -> Inputs:
    """Write the inputs of ``workload`` for ``seed`` into ``out_dir``.

    ``tables`` maps script name to a loaded ``G2PTable``; only the treebank
    workloads use it.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    if workload == "corpus":
        inputs = _treebanks(seed, tables, out_dir, CORPUS_SIZES, CORPUS_COGNATE_SHARE, workload)
    elif workload == "ingest":
        inputs = _treebanks(seed, tables, out_dir, INGEST_SIZES, INGEST_COGNATE_SHARE, workload)
    elif workload == "cell1000":
        inputs = _cell1000(seed, out_dir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    (out_dir / "manifest.json").write_text(
        json.dumps(inputs.manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return inputs
