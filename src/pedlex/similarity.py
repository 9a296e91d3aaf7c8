"""Word-list alignment and the PoS-wise similarity matrix.

Two lists are compared greedily: walking the shorter list in sorted order,
each word grabs its closest (normalized-PED) unused word of the longer list;
the mean of those minima is the pair's similarity score (0 identical, 1
disjoint). Greedy results depend on iteration order, so the order is pinned
(sorted by IPA string, with an opt-in seeded-shuffle diagnostic), argmin ties
go to the lexicographically smallest candidate, and sums accumulate in
iteration order. The same scores come out with or without DP pruning and for
any number of processes.

A run prepares each list once: it tokenizes the list, numbers the run's
phones in label order, so id tuples sort like label tuples, and prices one
dense table over those phones. ``build_matrix`` prepares every list that
some cell uses before any cell runs, and ``align_lists`` its own two. The
search itself, over the long list's length buckets, is ``ped.greedy_total``.

``build_matrix`` runs its cells largest first: the caller computes a prefix
of them, and a pool of worker processes, when asked, the rest.
"""

from __future__ import annotations

import logging
import random
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import combinations

from .corpus import WordList, check_header_value
from .distance import SubstitutionCosts
from .errors import PedlexError, TokenizeError, WordListError
from .features import FeatureInventory
from .ped import DpStats, greedy_total
from .tokenizer import tokenize

log = logging.getLogger("pedlex.similarity")

DEFAULT_MIN_SIZE = 5


@dataclass(frozen=True)
class SimilarityCell:
    lang_a: str
    lang_b: str
    pos: str
    mu_psi: float | None
    size_a: int
    size_b: int
    skipped_reason: str | None = None

    @property
    def skipped(self) -> bool:
        return self.skipped_reason is not None


@dataclass(frozen=True)
class SimilarityReport:
    cells: tuple[SimilarityCell, ...]


def _files(*lists: WordList) -> str:
    """'<file> and <file>: ' of the lists read from a file, to head an error."""
    paths = [str(wl.path) for wl in lists if wl.path is not None]
    return f"{' and '.join(paths)}: " if paths else ""


def check_distinct(lists: Sequence[WordList]) -> None:
    """Raise WordListError, naming both files, when two of ``lists`` share a
    (language, tag): such a pair, a copied file say, would give a cell of
    the language against itself. ``align_lists`` itself takes one list
    twice, as a self-similarity check does."""
    first: dict[tuple[str, str], int] = {}
    for k, wl in enumerate(lists):
        j = first.setdefault((wl.language, wl.pos), k)
        if j != k:
            raise WordListError(f"{_files(lists[j], wl)}two lists of ({wl.language}, {wl.pos})")


def _prepare_tokens(words: WordList, inventory: FeatureInventory, skip_unknown: bool):
    """Distinct IPA strings of a list mapped to their phone tuples. With
    ``skip_unknown``, strings that do not tokenize are dropped: one warning
    per list gives their count, and each is logged at DEBUG."""
    tokens = {}
    strings = words.ipa_strings()
    for ipa in strings:
        try:
            tokens[ipa] = tokenize(ipa, inventory)
        except TokenizeError as exc:
            if not skip_unknown:
                where = words.locate(ipa)
                raise TokenizeError(
                    (f"{where}: " if where else "")
                    + f"list ({words.language}, {words.pos}): {exc}"
                ) from None
            log.debug("dropped %r (%s, %s): %s", ipa, words.language, words.pos, exc)
    if len(tokens) < len(strings):
        log.warning(
            "dropped %d of %d words of (%s, %s): not tokenizable against the inventory",
            len(strings) - len(tokens),
            len(strings),
            words.language,
            words.pos,
        )
    return tokens


def _prepare_lists(lists, inventory: FeatureInventory, costs: SubstitutionCosts,
                   skip_unknown: bool):
    """Each list's distinct IPA strings mapped to label-id tuples, and one
    cost table: (per list, rows).

    The lists are tokenized in order, so the first one that fails is the one
    raised. Ids number the phones of all the lists in label order, so id
    tuples sort like label tuples, and rows[a][b] prices phone id a against
    phone id b.
    """
    tokens = [_prepare_tokens(words, inventory, skip_unknown) for words in lists]
    unique = {p.label: p for words_tokens in tokens for word in words_tokens.values()
              for p in word}
    order = sorted(unique)
    ids = {label: k for k, label in enumerate(order)}
    for words_tokens in tokens:
        for ipa, word in words_tokens.items():
            words_tokens[ipa] = tuple([ids[p.label] for p in word])
    table = [unique[label] for label in order]
    return tokens, costs.rows_for(table, table)


def align_lists(
    l1: WordList,
    l2: WordList,
    inventory: FeatureInventory | None,
    *,
    costs: SubstitutionCosts | None = None,
    min_size: int = DEFAULT_MIN_SIZE,
    prune: bool = True,
    shuffle_seed: int | None = None,
    skip_unknown: bool = False,
    stats: DpStats | None = None,
    prepared: tuple | None = None,
) -> SimilarityCell:
    """Greedy-align two word lists and return their similarity cell.

    The shorter list drives the iteration (ties: the lexicographically
    smaller language id); lists below ``min_size`` usable words yield a
    skipped cell, and a ``min_size`` below 1 counts as 1, so a list with no
    usable words is always skipped. ``shuffle_seed`` replaces the sorted
    iteration order with a seeded shuffle, as a diagnostic for the
    order-sensitivity of the greedy procedure. ``costs`` prices
    substitutions (default ``SubstitutionCosts()``).

    ``prepared`` is (the id tuples of l1, those of l2, rows) of a run that
    prepared both lists already, as ``build_matrix`` does; the lists are
    then neither tokenized nor priced again, and ``inventory`` (which may
    then be None), ``costs`` and ``skip_unknown`` are not read.

    A cell is one tag's: lists of two tags raise WordListError.
    """
    if l1.pos != l2.pos:
        raise WordListError(f"{_files(l1, l2)}lists of ({l1.language}, {l1.pos}) and "
                            f"({l2.language}, {l2.pos}) make no cell: a cell is one tag's")
    if prepared is None:
        if costs is None:
            costs = SubstitutionCosts()
        (tokens_1, tokens_2), rows = _prepare_lists((l1, l2), inventory, costs, skip_unknown)
    else:
        tokens_1, tokens_2, rows = prepared
    min_size = max(min_size, 1)

    lang_a, lang_b = sorted((l1.language, l2.language))
    size_a, size_b = len(tokens_1), len(tokens_2)
    if l1.language > l2.language:
        size_a, size_b = size_b, size_a
    base = dict(lang_a=lang_a, lang_b=lang_b, pos=l1.pos, size_a=size_a, size_b=size_b)
    if min(len(tokens_1), len(tokens_2)) < min_size:
        return SimilarityCell(mu_psi=None, skipped_reason=f"list smaller than {min_size}", **base)

    # the shorter list iterates; equal sizes resolved by language id
    if (len(tokens_1), l1.language) <= (len(tokens_2), l2.language):
        short, long_ = tokens_1, tokens_2
    else:
        short, long_ = tokens_2, tokens_1
    order = sorted(short)
    if shuffle_seed is not None:
        random.Random(shuffle_seed).shuffle(order)
    if stats is None:
        stats = DpStats()
    psi_all = greedy_total([short[ipa] for ipa in order], long_, rows, prune, stats)
    mu_psi = psi_all / len(short)
    return SimilarityCell(mu_psi=mu_psi, skipped_reason=None, **base)


# A pooled run computes its largest cell in the caller first, so that the
# workers fork with the scans it compiled, when that cell has at most this
# many word pairs. The pool then starts a cell's time later, which pays only
# while the cell is short against the workers' cold start. Measured with
# scripts/oneshot_pairs.py (--jobs 2, 2-core Xeon, CPython 3.11) on three
# NOUN lists of the ingest workload, seed 1, where the largest cell is a
# third of the work: running it first won on wall at 100,116 pairs (0.395
# -> 0.384 s median, 7 of 10 pairs) and lost at 123,480 (0.409 -> 0.427 s,
# 3 of 10), 149,688 (0.425 -> 0.495 s) and 1.38 M (0.98 -> 1.27 s), while
# it saved CPU from 80 k pairs up. Those lists were cut to alphabetical
# prefixes (a WordList sorts its lemmas), not treebank-order samples. The
# guard decides only when the workers fork, so under the default start
# method it decides nothing on Python 3.14+ on Linux (forkserver) or on
# macOS (spawn).
_WARM_MAX_PAIRS = 100_000

# (lists, min_size, tokens, rows) of the matrix a pool worker serves,
# tokens[k] being list k's id tuples (None for a list in no cell); set once
# per worker by its initializer, never in the caller
_worker_state = None


def _init_worker(*state):
    global _worker_state
    _worker_state = state


def _pooled_cell(pair):
    return _cell_task(_worker_state, pair)


def _cell_task(state, pair):
    lists, min_size, tokens, rows = state
    i, j = pair
    l1, l2 = lists[i], lists[j]
    try:
        return align_lists(l1, l2, None, min_size=min_size, prepared=(tokens[i], tokens[j], rows))
    except PedlexError:
        raise
    except Exception as exc:
        # a pool worker's traceback does not say which cell it was on
        cell = (*sorted((l1.language, l2.language)), l1.pos)
        raise RuntimeError(f"cell ({', '.join(cell)}) failed: {exc!r}") from exc


def build_matrix(
    lists: list[WordList],
    inventory: FeatureInventory,
    *,
    costs: SubstitutionCosts | None = None,
    min_size: int = DEFAULT_MIN_SIZE,
    skip_unknown: bool = False,
    jobs: int = 1,
) -> SimilarityReport:
    """One similarity cell per unordered language pair per shared tag.

    Cells run largest first (by the product of the lists' distinct IPA
    strings; ties in canonical order). Before any cell runs, every list that
    some cell uses is prepared once, here, in the order those cells first use
    it: tokenized against ``inventory``, with its phones numbered across the
    run, and one table prices them all with ``costs`` (default
    ``SubstitutionCosts()``). So an untokenizable word or a list without IPA
    raises before any worker starts, naming the list the first failing cell
    would name, and ``skip_unknown`` logs one drop warning per list.

    Cells are independent. This process computes a prefix of them, and a
    pool of ``jobs`` worker processes, at most one per cell, the rest: each
    worker receives the lists, ``min_size``, the id tuples and the table
    once, when it starts, and each cell as a pair of list indices. Without
    a pool the prefix is every cell. With one it is the largest cell when
    the workers fork from this process (start method ``fork``), that cell
    has at most ``_WARM_MAX_PAIRS`` word pairs and at least ``jobs`` cells
    are left after it, and empty otherwise: a worker that starts cold
    compiles the same narrow DP plans as every other one (``ped._compile``),
    and these fork with the scans that cell compiled.
    Cells run largest first on both sides, so when several cells fail the
    first of them in that order is the one raised. A cell that fails with
    anything but a ``PedlexError`` raises a ``RuntimeError`` naming it. The
    report is assembled in canonical (pos, lang_a, lang_b) order.

    Two lists of one (language, tag) raise WordListError (``check_distinct``).
    """
    if costs is None:
        costs = SubstitutionCosts()
    lists = tuple(lists)
    check_distinct(lists)
    by_pos: dict[str, list[int]] = {}
    for k, wl in enumerate(lists):
        by_pos.setdefault(wl.pos, []).append(k)
    pairs = []
    for pos in sorted(by_pos):
        group = sorted(by_pos[pos], key=lambda k: lists[k].language)
        pairs.extend(combinations(group, 2))
    if not pairs:
        log.warning("no language pair shares a tag; empty report")
    # a list without IPA sizes 0; its preparation raises
    sizes = [len(set((wl.ipa_by_lemma or {}).values())) for wl in lists]
    pairs.sort(key=lambda pair: -sizes[pair[0]] * sizes[pair[1]])
    used = list(dict.fromkeys(k for pair in pairs for k in pair))
    prepared, rows = _prepare_lists([lists[k] for k in used], inventory, costs, skip_unknown)
    tokens = [None] * len(lists)
    for k, words_tokens in zip(used, prepared):
        tokens[k] = words_tokens
    state = (lists, min_size, tokens, rows)
    # the pool starts all its workers up front; never more than there are cells
    workers = min(jobs, len(pairs))
    caller = len(pairs)  # how many of the largest-first cells run here
    if workers > 1:
        # imported here: only a forking run pays for concurrent.futures and
        # multiprocessing
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        i, j = pairs[0]
        # the workers fork with the scans the largest cell compiled
        caller = int(sizes[i] * sizes[j] <= _WARM_MAX_PAIRS and len(pairs) > jobs
                     and multiprocessing.get_start_method() == "fork")
    cells = [_cell_task(state, pair) for pair in pairs[:caller]]
    if caller < len(pairs):
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=state
        ) as pool:
            cells.extend(pool.map(_pooled_cell, pairs[caller:]))
    cells.sort(key=lambda c: (c.pos, c.lang_a, c.lang_b))
    return SimilarityReport(cells=tuple(cells))


REPORT_HEADER = ("lang_a", "lang_b", "pos", "mu_psi", "size_a", "size_b", "skipped")


def _report_rows(report: SimilarityReport):
    """The header and one row per cell. A cell's languages and tag follow the
    list header rule (``check_header_value``), so no field splits a row; a
    list built through the library has not been checked against it yet."""
    yield REPORT_HEADER
    for cell in report.cells:
        where = f"report cell {(cell.lang_a, cell.lang_b, cell.pos)!r}"
        for name, value in (("lang_a", cell.lang_a), ("lang_b", cell.lang_b), ("pos", cell.pos)):
            check_header_value(f"{where}: {name}", value)
        yield (
            cell.lang_a,
            cell.lang_b,
            cell.pos,
            "" if cell.mu_psi is None else f"{cell.mu_psi:.4f}",
            str(cell.size_a),
            str(cell.size_b),
            cell.skipped_reason or "",
        )


def format_report(report: SimilarityReport, out_format: str = "csv") -> str:
    """Render a report as 'csv' or 'long-tsv' text (same columns). A cell
    whose language or tag could not head a word list raises WordListError
    naming the cell."""
    if out_format == "csv":
        sep = ","
    elif out_format == "long-tsv":
        sep = "\t"
    else:
        raise WordListError(f"unknown report format {out_format!r}")
    return "\n".join(sep.join(row) for row in _report_rows(report)) + "\n"
