"""Independent reference results for the benchmark's output checks.

The reference re-derives every output from what the generator wrote, without
calling pedlex's g2p, tokenizer, DP or alignment code: its own longest-match
g2p and tokenizer, and an all-pairs edit-distance DP in numpy over a dense
cost table. Only the per-sound cost (``phonetic_difference``) and the data
files come from pedlex. The arithmetic is the same IEEE sequence as pedlex's
DP (diagonal + cost, neighbour + 1, minimum), so μΨ must agree bit for bit.
"""

from __future__ import annotations

import unicodedata
from itertools import combinations

import numpy as np

MIN_SIZE = 5
REPORT_HEADER = "lang_a,lang_b,pos,mu_psi,size_a,size_b,skipped"
_ROW_BLOCK = 256  # query rows per numpy DP block, bounds memory


def g2p(word: str, rules: dict, longest: int, language: str) -> str | None:
    """Longest-match conversion; a language rule beats the base rule.

    ``rules`` maps (grapheme, language or None) to IPA and ``longest`` is the
    longest grapheme. Returns None for a word with an unmapped grapheme or an
    empty result, the two cases pedlex drops.
    """
    text = unicodedata.normalize("NFC", word)
    out = []
    pos = 0
    while pos < len(text):
        for length in range(min(longest, len(text) - pos), 0, -1):
            chunk = text[pos : pos + length]
            ipa = rules.get((chunk, language), rules.get((chunk, None)))
            if ipa is not None:
                out.append(ipa)
                pos += length
                break
        else:
            return None
    return "".join(out) or None


class Phones:
    """Inventory labels as small ints, the dense cost table, and a tokenizer."""

    def __init__(self, inventory, cfg, xi, phonetic_difference):
        self.labels = inventory.labels()
        self.ids = {label: i for i, label in enumerate(self.labels)}
        self.longest = max(len(label) for label in self.labels)
        phones = [inventory[label] for label in self.labels]
        self.costs = np.array(
            [[phonetic_difference(a, b, cfg, xi) for b in phones] for a in phones]
        )
        if not np.array_equal(self.costs, self.costs.T):
            # the DP below relies on it to ignore which word is the longer
            raise ValueError("substitution costs are not symmetric")

    def tokenize(self, ipa: str) -> tuple[int, ...] | None:
        """Greedy longest match over the labels; None if a symbol is unknown."""
        text = unicodedata.normalize("NFC", ipa).replace("ː", ":")
        out = []
        pos = 0
        while pos < len(text):
            for length in range(min(self.longest, len(text) - pos), 0, -1):
                label_id = self.ids.get(text[pos : pos + length])
                if label_id is not None:
                    out.append(label_id)
                    pos += length
                    break
            else:
                return None
        return tuple(out)


def _padded(words: list[tuple[int, ...]]):
    lengths = np.array([len(w) for w in words])
    ids = np.zeros((len(words), lengths.max()), dtype=np.intp)
    for row, word in enumerate(words):
        ids[row, : len(word)] = word
    return ids, lengths


def normalized_distances(rows: list[tuple[int, ...]], cols: list[tuple[int, ...]], costs):
    """Matrix of ped(row word, col word) / longer length, every pair computed."""
    col_ids, col_len = _padded(cols)
    n_cols, width = col_ids.shape
    out = np.empty((len(rows), n_cols))
    for start in range(0, len(rows), _ROW_BLOCK):
        row_ids, row_len = _padded(rows[start : start + _ROW_BLOCK])
        n_rows = len(row_ids)
        dist = np.zeros((n_rows, n_cols))
        prev = [np.full((n_rows, n_cols), float(j)) for j in range(width + 1)]
        for i in range(1, row_ids.shape[1] + 1):
            row_costs = costs[row_ids[:, i - 1]]
            cur = [np.full((n_rows, n_cols), float(i))]
            for j in range(1, width + 1):
                best = prev[j - 1] + row_costs[:, col_ids[:, j - 1]]
                np.minimum(best, prev[j] + 1.0, out=best)
                np.minimum(best, cur[j - 1] + 1.0, out=best)
                cur.append(best)
            done = np.flatnonzero(row_len == i)
            if done.size:
                stacked = np.stack(cur)  # (width + 1, rows, cols)
                dist[done] = stacked[col_len[None, :], done[:, None], np.arange(n_cols)]
            prev = cur
        # every word has at least one phone: g2p drops words that come out empty
        out[start : start + n_rows] = dist / np.maximum(row_len[:, None], col_len[None, :])
    return out


def mu_psi(short: list[tuple[int, ...]], long_: list[tuple[int, ...]], costs) -> float:
    """Greedy μΨ; both lists are already in IPA order, ties go to the first."""
    nd = normalized_distances(short, long_, costs)
    free = np.ones(len(long_), dtype=bool)
    total = 0.0
    for row in nd:
        masked = np.where(free, row, np.inf)
        best = int(np.argmin(masked))
        total += float(masked[best])
        free[best] = False
    return total / len(short)


def cell(lang_1: str, ipas_1, lang_2: str, ipas_2, pos: str, phones: Phones):
    """One report row, following align_lists' choice of the iterating list."""
    tokens = []
    for ipas in (ipas_1, ipas_2):
        tokenized = {}
        for ipa in sorted(set(ipas)):
            ids = phones.tokenize(ipa)
            if ids is None:
                raise ValueError(f"generated IPA {ipa!r} is not tokenizable")
            tokenized[ipa] = ids
        tokens.append(tokenized)
    t1, t2 = tokens
    lang_a, lang_b = sorted((lang_1, lang_2))
    size_a, size_b = (len(t1), len(t2)) if lang_1 <= lang_2 else (len(t2), len(t1))
    if min(len(t1), len(t2)) < MIN_SIZE:
        return (lang_a, lang_b, pos, None, size_a, size_b, f"list smaller than {MIN_SIZE}")
    short, long_ = (t1, t2) if (len(t1), lang_1) <= (len(t2), lang_2) else (t2, t1)
    mu = mu_psi(
        [short[k] for k in sorted(short)], [long_[k] for k in sorted(long_)], phones.costs
    )
    return (lang_a, lang_b, pos, mu, size_a, size_b, "")


def format_report(rows) -> str:
    lines = [REPORT_HEADER]
    for lang_a, lang_b, pos, mu, size_a, size_b, skipped in rows:
        mu_text = "" if mu is None else f"{mu:.4f}"
        lines.append(f"{lang_a},{lang_b},{pos},{mu_text},{size_a},{size_b},{skipped}")
    return "\n".join(lines) + "\n"


def converted_lists(vocab, languages: dict[str, str], tables) -> dict:
    """(language, tag) -> {lemma: ipa or None} as g2p must leave each list."""
    longest = {script: max(len(g) for g, _ in t.rules) for script, t in tables.items()}
    out = {}
    for (lang, tag), lemmas in vocab.items():
        script = languages[lang]
        rules = tables[script].rules
        out[(lang, tag)] = {
            unicodedata.normalize("NFC", lemma): g2p(lemma, rules, longest[script], lang)
            for lemma in lemmas
        }
    return out


def corpus_report(lists: dict, phones: Phones) -> str:
    """The matrix report for the converted lists, in canonical order."""
    by_tag: dict[str, list[str]] = {}
    for lang, tag in lists:
        by_tag.setdefault(tag, []).append(lang)
    rows = []
    for tag in sorted(by_tag):
        for lang_1, lang_2 in combinations(sorted(by_tag[tag]), 2):
            ipas_1 = [ipa for ipa in lists[(lang_1, tag)].values() if ipa]
            ipas_2 = [ipa for ipa in lists[(lang_2, tag)].values() if ipa]
            rows.append(cell(lang_1, ipas_1, lang_2, ipas_2, tag, phones))
    return format_report(rows)


def ingest_rows(lists: dict, phones: Phones) -> dict[str, list]:
    """'<lang>_<TAG>' -> (lemma, ipa or None, token count) rows of each list."""
    out = {}
    for (lang, tag), ipa_by_lemma in lists.items():
        rows = []
        for lemma, ipa in ipa_by_lemma.items():
            ids = phones.tokenize(ipa) if ipa else ()
            if ids is None:
                raise ValueError(f"generated IPA {ipa!r} is not tokenizable")
            rows.append((lemma, ipa, len(ids)))
        out[f"{lang}_{tag}"] = rows
    return out
