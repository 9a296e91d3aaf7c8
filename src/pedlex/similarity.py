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
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import combinations

from .corpus import WordList
from .distance import DistanceConfig, MannerDistanceTable, SubstitutionCosts
from .errors import TokenizeError, WordListError
from .features import FeatureInventory
from .ped import DpStats, dp_labels
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
    metadata: dict = field(default_factory=dict, compare=False)


def _prepare_tokens(words: WordList, inventory: FeatureInventory, skip_unknown: bool):
    """Distinct IPA strings of a list mapped to label tuples (and phones)."""
    tokens = {}
    phones = []
    for ipa in words.ipa_strings():
        try:
            ps = tokenize(ipa, inventory)
        except TokenizeError:
            if not skip_unknown:
                raise
            log.warning(
                "dropped %r (%s, %s): not tokenizable against the inventory",
                ipa,
                words.language,
                words.pos,
            )
            continue
        tokens[ipa] = ps.labels
        phones.extend(ps.phones)
    return tokens, phones


def align_lists(
    l1: WordList,
    l2: WordList,
    inventory: FeatureInventory,
    cfg: DistanceConfig | None = None,
    xi: MannerDistanceTable | None = None,
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
    order-sensitivity of the greedy procedure.
    """
    if costs is None:
        from .defaults import default_manner_table

        costs = SubstitutionCosts(
            cfg if cfg is not None else DistanceConfig(),
            xi if xi is not None else default_manner_table(),
        )
    min_size = max(min_size, 1)
    tokens_1, phones_1 = _prepare_tokens(l1, inventory, skip_unknown)
    tokens_2, phones_2 = _prepare_tokens(l2, inventory, skip_unknown)

    lang_a, lang_b = sorted((l1.language, l2.language))
    sizes = {l1.language: len(tokens_1), l2.language: len(tokens_2)}
    if l1.language == l2.language:
        size_a = len(tokens_1)
        size_b = len(tokens_2)
    else:
        size_a, size_b = sizes[lang_a], sizes[lang_b]
    base = dict(
        lang_a=lang_a, lang_b=lang_b, pos=l1.pos, size_a=size_a, size_b=size_b
    )
    if min(len(tokens_1), len(tokens_2)) < min_size:
        return SimilarityCell(mu_psi=None, skipped_reason=f"list smaller than {min_size}", **base)

    # the shorter list iterates; equal sizes resolved by language id
    if (len(tokens_1), l1.language) <= (len(tokens_2), l2.language):
        short, long_ = tokens_1, tokens_2
    else:
        short, long_ = tokens_2, tokens_1

    rows = costs.rows_for(phones_1 + phones_2, phones_1 + phones_2)
    order = sorted(short)
    if shuffle_seed is not None:
        random.Random(shuffle_seed).shuffle(order)
    remaining = dict(sorted(long_.items()))  # ipa -> labels

    psi_all = 0.0
    for w_ipa in order:
        w_labels = short[w_ipa]
        w_len = len(w_labels)
        best_val = None
        best_ipa = None
        candidates = remaining.items()
        if prune:
            # near-length candidates first so the best-so-far bound bites early
            candidates = sorted(
                candidates, key=lambda item: (abs(len(item[1]) - w_len), item[0])
            )
        for x_ipa, x_labels in candidates:
            maxlen = max(w_len, len(x_labels))
            if maxlen == 0:
                nd = 0.0
            else:
                if prune and best_val is not None:
                    if abs(w_len - len(x_labels)) / maxlen > best_val:
                        if stats is not None:
                            stats.prefiltered += 1
                        continue
                    d = dp_labels(w_labels, x_labels, rows, bound=best_val, stats=stats)
                    if d is None:
                        continue
                else:
                    d = dp_labels(w_labels, x_labels, rows, stats=stats)
                nd = d / maxlen
            if (
                best_val is None
                or nd < best_val
                or (nd == best_val and x_ipa < best_ipa)
            ):
                best_val = nd
                best_ipa = x_ipa
        psi_all += best_val
        del remaining[best_ipa]
    mu_psi = psi_all / len(short)
    return SimilarityCell(mu_psi=mu_psi, skipped_reason=None, **base)


def _cell_task(args):
    l1, l2, inventory, cfg, xi, min_size, prune, skip_unknown = args
    return align_lists(
        l1,
        l2,
        inventory,
        cfg,
        xi,
        min_size=min_size,
        prune=prune,
        skip_unknown=skip_unknown,
    )


def build_matrix(
    lists: list[WordList],
    inventory: FeatureInventory,
    cfg: DistanceConfig | None = None,
    xi: MannerDistanceTable | None = None,
    *,
    min_size: int = DEFAULT_MIN_SIZE,
    prune: bool = True,
    skip_unknown: bool = False,
    jobs: int = 1,
) -> SimilarityReport:
    """One similarity cell per unordered language pair per shared tag.

    Cells are independent and can run on ``jobs`` worker processes; the
    report is assembled in canonical (pos, lang_a, lang_b) order either way.
    """
    by_pos: dict[str, list[WordList]] = {}
    for wl in lists:
        by_pos.setdefault(wl.pos, []).append(wl)
    tasks = []
    for pos in sorted(by_pos):
        group = sorted(by_pos[pos], key=lambda wl: wl.language)
        for l1, l2 in combinations(group, 2):
            tasks.append((l1, l2, inventory, cfg, xi, min_size, prune, skip_unknown))
    if not tasks:
        log.warning("no language pair shares a tag; empty report")
        cells: list[SimilarityCell] = []
    elif jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            cells = list(pool.map(_cell_task, tasks))
    else:
        cells = [_cell_task(task) for task in tasks]
    cells.sort(key=lambda c: (c.pos, c.lang_a, c.lang_b))
    metadata = {
        "inventory": inventory.source,
        "manner_table": getattr(xi, "source", ""),
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }
    return SimilarityReport(cells=tuple(cells), metadata=metadata)


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
