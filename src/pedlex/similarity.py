"""Word-list alignment and the PoS-wise similarity matrix.

Two lists are compared greedily: walking the shorter list in sorted order,
each word grabs its nearest (normalized-PED) unused word of the longer list;
the mean of those minima is the pair's similarity score (0 identical, 1
disjoint). Greedy results depend on iteration order, so the order is pinned
(sorted by IPA string, with an opt-in seeded-shuffle diagnostic), argmin ties
go to the lexicographically smallest candidate, and sums accumulate in
iteration order. The same scores come out with or without DP pruning and for
any worker count.
"""

from __future__ import annotations

import logging
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import combinations
from math import inf
from operator import itemgetter

from .corpus import WordList
from .distance import SubstitutionCosts
from .errors import PedlexError, TokenizeError, WordListError
from .features import FeatureInventory
from .ped import Bucket, DpStats, dp_labels, dp_stack
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


def _prepare_tokens(words: WordList, inventory: FeatureInventory, skip_unknown: bool):
    """Distinct IPA strings of a list mapped to label-id tuples, and the
    list's distinct phones by id. Ids are numbered in label order, so id
    tuples sort like label tuples."""
    tokens = {}
    for ipa in words.ipa_strings():
        try:
            tokens[ipa] = tokenize(ipa, inventory)
        except TokenizeError as exc:
            if not skip_unknown:
                where = words.locate(ipa)
                raise TokenizeError(
                    (f"{where}: " if where else "")
                    + f"list ({words.language}, {words.pos}): {exc}"
                ) from None
            log.warning(
                "dropped %r (%s, %s): not tokenizable against the inventory",
                ipa,
                words.language,
                words.pos,
            )
    unique = {p.label: p for word in tokens.values() for p in word}
    order = sorted(unique)
    ids = {label: k for k, label in enumerate(order)}
    for ipa, word in tokens.items():
        tokens[ipa] = tuple([ids[p.label] for p in word])
    return tokens, [unique[label] for label in order]


def align_lists(
    l1: WordList,
    l2: WordList,
    inventory: FeatureInventory,
    *,
    costs: SubstitutionCosts | None = None,
    min_size: int = DEFAULT_MIN_SIZE,
    prune: bool = True,
    shuffle_seed: int | None = None,
    skip_unknown: bool = False,
    stats: DpStats | None = None,
) -> SimilarityCell:
    """Greedy-align two word lists and return their similarity cell.

    The shorter list drives the iteration (ties: the lexicographically
    smaller language id); lists below ``min_size`` usable words yield a
    skipped cell, and a ``min_size`` below 1 counts as 1, so a list with no
    usable words is always skipped. ``shuffle_seed`` replaces the sorted
    iteration order with a seeded shuffle, as a diagnostic for the
    order-sensitivity of the greedy procedure. ``costs`` prices
    substitutions (default ``SubstitutionCosts()``).
    """
    if costs is None:
        costs = SubstitutionCosts()
    min_size = max(min_size, 1)
    tokens_1, phones_1 = _prepare_tokens(l1, inventory, skip_unknown)
    tokens_2, phones_2 = _prepare_tokens(l2, inventory, skip_unknown)

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
        rows = costs.rows_for(phones_2, phones_1)
    else:
        short, long_ = tokens_2, tokens_1
        rows = costs.rows_for(phones_1, phones_2)
    order = sorted(short)
    if shuffle_seed is not None:
        random.Random(shuffle_seed).shuffle(order)
    if stats is None:
        stats = DpStats()
    psi_all = _greedy_total([short[ipa] for ipa in order], long_, rows, prune, stats)
    mu_psi = psi_all / len(short)
    return SimilarityCell(mu_psi=mu_psi, skipped_reason=None, **base)


def _greedy_total(queries, long_, rows, prune, stats):
    """Σ over the queries, in order, of the normalized PED to the nearest
    unclaimed word of ``long_`` (ties to the smaller IPA), which it claims.

    The long list is scanned in buckets of equal token length, nearest
    length first; each bucket is one ``dp_labels`` call, which skips it
    whole when its length gap alone exceeds the best-so-far.
    rows[a][b] prices long-list label id a against short-list label id b.
    """
    by_length: dict[int, list] = {}
    for ipa, labels in long_.items():
        by_length.setdefault(len(labels), []).append((labels, ipa))
    buckets = [Bucket(length, by_length[length]) for length in sorted(by_length)]
    visits: dict[int, list] = {}  # bucket visit order per query length
    stack = dp_stack(buckets[-1].length, max(map(len, queries)))  # reused across queries
    head = (0.0,)  # prof[label][0] is unused
    total = 0.0
    for w in queries:
        n = len(w)
        if n > 1:
            get = itemgetter(*w)
            prof = [head + get(row) for row in rows]
        else:  # itemgetter of one index returns the item, not a tuple
            prof = [head + tuple([row[j] for j in w]) for row in rows]
        stack[0] = [float(j) for j in range(n + 1)]
        order = visits.get(n)
        if order is None:
            order = visits[n] = sorted(buckets, key=lambda b: (abs(b.length - n), b.length))
        best = inf
        best_ipa = best_at = None
        for bucket in order:
            hit = dp_labels(bucket, prof, stack, best, best_ipa, prune, stats)
            if hit is not None:
                k, best = hit
                best_ipa, best_at = bucket.ipas[k], (bucket, k)
        total += best
        bucket, k = best_at
        bucket.remove(k)
    return total


# (lists, inventory, costs, min_size, skip_unknown) of the matrix a pool
# worker serves; set once per worker by its initializer, never in the caller
_worker_state = None


def _init_worker(*state):
    global _worker_state
    _worker_state = state


def _pooled_cell(pair):
    return _cell_task(_worker_state, pair)


def _cell_task(state, pair):
    lists, inventory, costs, min_size, skip_unknown = state
    l1, l2 = lists[pair[0]], lists[pair[1]]
    try:
        return align_lists(
            l1, l2, inventory, costs=costs, min_size=min_size, skip_unknown=skip_unknown
        )
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

    Every cell prices substitutions with the one ``costs`` (default
    ``SubstitutionCosts()``). Cells are independent and can run on ``jobs``
    worker processes, at most one per cell: each worker receives the lists,
    ``inventory``, ``costs``, ``min_size`` and ``skip_unknown`` once, when it
    starts, and each cell is sent to it as a pair of list indices. Cells run
    largest first (by the product of the lists' distinct IPA strings; ties in
    canonical order), in the pool and in-process alike, so when several
    cells fail the first of them in that order is the one raised. The report
    is assembled in canonical (pos, lang_a, lang_b) order either way. A cell
    that fails with anything but a ``PedlexError`` raises a ``RuntimeError``
    naming it.
    """
    if costs is None:
        costs = SubstitutionCosts()
    lists = tuple(lists)
    by_pos: dict[str, list[int]] = {}
    for k, wl in enumerate(lists):
        by_pos.setdefault(wl.pos, []).append(k)
    pairs = []
    for pos in sorted(by_pos):
        group = sorted(by_pos[pos], key=lambda k: lists[k].language)
        pairs.extend(combinations(group, 2))
    if not pairs:
        log.warning("no language pair shares a tag; empty report")
    # a list without IPA sizes 0; its cells raise when their turn comes
    sizes = [len(set((wl.ipa_by_lemma or {}).values())) for wl in lists]
    pairs.sort(key=lambda pair: -sizes[pair[0]] * sizes[pair[1]])
    state = (lists, inventory, costs, min_size, skip_unknown)
    # the pool starts all its workers up front; never more than there are cells
    workers = min(jobs, len(pairs))
    if workers > 1:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=state
        ) as pool:
            cells = list(pool.map(_pooled_cell, pairs))
    else:
        cells = [_cell_task(state, pair) for pair in pairs]
    cells.sort(key=lambda c: (c.pos, c.lang_a, c.lang_b))
    return SimilarityReport(cells=tuple(cells))


REPORT_HEADER = ("lang_a", "lang_b", "pos", "mu_psi", "size_a", "size_b", "skipped")


def _report_rows(report: SimilarityReport):
    yield REPORT_HEADER
    for cell in report.cells:
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
    """Render a report as 'csv' or 'long-tsv' text (same columns)."""
    if out_format == "csv":
        sep = ","
    elif out_format == "long-tsv":
        sep = "\t"
    else:
        raise WordListError(f"unknown report format {out_format!r}")
    return "\n".join(sep.join(row) for row in _report_rows(report)) + "\n"
