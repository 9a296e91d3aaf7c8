"""Phonetic edit distance.

The classic edit-distance recurrence with insertion/deletion at cost 1 and
substitution priced by the articulatory distance of the two phones (0 when
the labels are equal). One kernel, ``dp_labels``, computes it for ``ped``,
its edit-script trace and the greedy list alignment: one call scans a
bucket of equal-length candidate words against one query word, rows over
the candidate and columns over the query, and reuses the rows of a prefix
shared with the previous candidate.

The kernel cuts its search off at the normalized best-so-far. Only the
diagonal band that a path within it can reach is filled (Ukkonen's cutoff),
and a candidate is abandoned as soon as the minimum of the current row,
divided by the longer length, exceeds it. Both tests are lower
bounds on the final distance, so they never discard a candidate that could
still win or tie; results with pruning are bit-identical to results
without.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from math import floor, inf as INF, nextafter

from .distance import SubstitutionCosts
from .features import Phone


class DpStats:
    """Counters for DP work done.

    Every candidate a query considers counts once in ``prefiltered`` (its
    length gap alone exceeded the bound) or in ``dps`` (its DP started);
    ``abandoned`` counts the candidates a row proved hopeless. A ``ped``
    call is one candidate. ``cells`` counts DP cells actually computed.
    """

    __slots__ = ("cells", "dps", "abandoned", "prefiltered")

    def __init__(self):
        self.cells = 0
        self.dps = 0
        self.abandoned = 0
        self.prefiltered = 0


@dataclass(frozen=True)
class EditOp:
    op: str  # match | substitute | insert | delete
    source: str | None
    target: str | None
    cost: float


@dataclass(frozen=True)
class PedResult:
    distance: float
    normalized: float
    ops_trace: tuple[EditOp, ...] | None = None


def band(limit: float, rows: int, cols: int):
    """Diagonals (lo, hi) a DP path scoring at most ``limit`` can touch.

    Cell (i, j) lies on diagonal i - j. Every path through it takes at least
    s = |i-j| + |(rows-i) - (cols-j)| unit steps, and in floats a value built
    from s additions of 1.0 to non-negative numbers is at least s, so such a
    path only visits cells with s <= floor(limit). Those cells are the
    diagonals lo..hi; None when no path can qualify. An infinite or NaN
    limit gives every diagonal.

    With limit = ``threshold(bound, maxlen)``, floor(limit) is the largest
    integer t with t / maxlen <= bound: float division is monotone.
    """
    if limit < 0:
        return None
    t = floor(limit) if limit < rows + cols else rows + cols
    delta = rows - cols
    slack = (t - abs(delta)) // 2
    if slack < 0:
        return None
    return min(0, delta) - slack, max(0, delta) + slack


def threshold(bound: float, maxlen: int) -> float:
    """The largest float r with r / maxlen <= bound.

    Float division by a positive number is monotone, so ``r > threshold``
    holds exactly when ``r / maxlen > bound``: the row test needs no
    division. An infinite bound gives inf, and so does maxlen 0 (two empty
    words have no rows to test).
    """
    if bound == INF or not maxlen:
        return INF
    r = bound * maxlen
    while r / maxlen > bound:
        r = nextafter(r, -INF)
    while nextafter(r, INF) / maxlen <= bound:
        r = nextafter(r, INF)
    return r


@lru_cache(maxsize=4096)
def row_spans(rows: int, cols: int, lo: int, hi: int) -> tuple:
    """Per-row plan of the DP cells on diagonals lo..hi (see ``band``).

    Entry i (1..rows; entry 0 is unused) is (first column, range of the
    columns 1..cols computed, sentinel column set to inf right of them or 0
    for none, the row's column-0 value or inf when column 0 is outside the
    band, the number of columns).
    """
    spans = [None]
    for i in range(1, rows + 1):
        jlo, jhi = i - hi, i - lo
        sentinel = 0
        if jhi < cols:
            sentinel = jhi + 1
        else:
            jhi = cols
        left = INF
        if jlo <= 0:
            jlo, left = 1, float(i)
        spans.append((jlo, range(jlo, jhi + 1), sentinel, left, jhi - jlo + 1))
    return tuple(spans)


class Bucket:
    """Candidate words of one token length, sorted by (labels, ipa).

    ``labels`` holds label-id tuples, ``ipas`` the IPA string of each (it
    breaks distance ties), and lcp[k] the number of leading labels word k
    shares with word k - 1 (0 for the first word).
    """

    __slots__ = ("length", "labels", "ipas", "lcp")

    def __init__(self, length, entries):
        entries.sort()
        self.length = length
        self.labels = [labels for labels, _ in entries]
        self.ipas = [ipa for _, ipa in entries]
        self.lcp = [0] * len(entries)
        for k in range(1, len(entries)):
            a, b = self.labels[k - 1], self.labels[k]
            common = 0
            while common < length and a[common] == b[common]:
                common += 1
            self.lcp[k] = common

    def remove(self, k):
        lcp = self.lcp
        if k + 1 < len(lcp):
            # the new neighbours share the shorter of the two prefixes
            lcp[k + 1] = min(lcp[k], lcp[k + 1])
        del self.labels[k], self.ipas[k], lcp[k]


def dp_labels(bucket, prof, stack, best, best_ipa, prune, stats):
    """Scan one bucket for a candidate nearer than ``best``; the DP kernel.

    Rows run over a candidate, columns over a query word of n labels:
    stack[0] is [0, 1, ..., n], stack[i][0] is i, and prof[label][j] is the
    cost of substituting candidate label id ``label`` for query label j
    (prof[label][0] is unused). Candidate k resumes from the rows of the
    lcp[k] labels it shares with the one before, even rows that proved that
    one hopeless; rows 1..m of the stack are overwritten.

    With ``prune`` the search is cut off at ``best``: limit is
    ``threshold(best, maxlen)``, and row i computes only the columns on
    ``band(limit, ...)`` and sets the column right of them to inf; those are
    the only cells of a row that the next row reads, so a row computed under
    a wider band stays valid under a narrower one. A bucket whose length gap
    alone exceeds the limit is booked in ``stats.prefiltered`` and not
    scanned. Row minima never decrease down the rows and bound the distance
    from below: once row_min > limit, no path through the row scores within
    best, and a candidate resumed from such a row fails at its next row (or,
    with none left, ends above it).

    A completed candidate with normalized distance nd wins when nd < best,
    or nd == best and its IPA sorts before ``best_ipa``; with ``prune`` the
    cut-offs then tighten to nd. Returns (index, nd) of the last winner, or
    None. Books every scanned candidate in ``stats.dps``.
    """
    m = bucket.length
    n = len(stack[0]) - 1
    maxlen = m if m > n else n
    limit = threshold(best, maxlen) if prune else INF
    diagonals = band(limit, m, n)
    if diagonals is None:
        stats.prefiltered += len(bucket.labels)
        return None
    spans = row_spans(m, n, *diagonals)
    lcp, ipas = bucket.lcp, bucket.ipas
    hit = None
    cells = abandoned = depth = 0
    for k, x in enumerate(bucket.labels):
        if depth > lcp[k]:
            depth = lcp[k]
        prev = stack[depth]
        for i in range(depth + 1, m + 1):
            jlo, cols, sentinel, left, width = spans[i]
            cur = stack[i]
            cost = prof[x[i - 1]]
            if sentinel:
                cur[sentinel] = INF
            row_min = left
            diag = prev[jlo - 1]
            for j in cols:
                up = prev[j]
                d = diag + cost[j]
                # min(up, left) + 1.0 == min(up + 1.0, left + 1.0) exactly
                alt = (up if up < left else left) + 1.0
                if alt < d:
                    d = alt
                cur[j] = left = d
                if d < row_min:
                    row_min = d
                diag = up
            cells += width
            if row_min > limit:
                depth = i
                abandoned += 1
                break
            prev = cur
        else:
            depth = m
            nd = prev[n] / maxlen if maxlen else 0.0
            if nd < best or (nd == best and ipas[k] < best_ipa):
                best, best_ipa, hit = nd, ipas[k], (k, nd)
                if prune:
                    limit = threshold(nd, maxlen)
                    spans = row_spans(m, n, *band(limit, m, n))
    stats.dps += len(bucket.labels)
    stats.cells += cells
    stats.abandoned += abandoned
    return hit


def dp_stack(rows: int, cols: int) -> list[list[float]]:
    """DP rows for candidates of up to ``rows`` labels against query words of
    up to ``cols``: row 0 is [0, 1, ..., cols], and column 0 of row i is i,
    which ``dp_labels`` reads but never writes."""
    stack = [[float(i)] + [0.0] * cols for i in range(rows + 1)]
    stack[0] = [float(j) for j in range(cols + 1)]
    return stack


def _edit_script(source, target, sub, stack):
    """Backtrack a full DP matrix into edit operations, source to target;
    sub[i - 1][j] prices source[i - 1] against target[j - 1]."""
    x = [p.label for p in source]
    w = [p.label for p in target]
    ops: list[EditOp] = []
    i, j = len(x), len(w)
    while i > 0 or j > 0:
        if i > 0 and j > 0:
            cost = sub[i - 1][j]
            if stack[i][j] == stack[i - 1][j - 1] + cost:
                op = "match" if x[i - 1] == w[j - 1] else "substitute"
                ops.append(EditOp(op, x[i - 1], w[j - 1], cost))
                i -= 1
                j -= 1
                continue
        if i > 0 and stack[i][j] == stack[i - 1][j] + 1.0:
            ops.append(EditOp("delete", x[i - 1], None, 1.0))
            i -= 1
            continue
        ops.append(EditOp("insert", None, w[j - 1], 1.0))
        j -= 1
    ops.reverse()
    return tuple(ops)


def ped(
    source: Sequence[Phone],
    target: Sequence[Phone],
    *,
    costs: SubstitutionCosts | None = None,
    bound: float | None = None,
    trace: bool = False,
    stats: DpStats | None = None,
) -> PedResult | None:
    """Phonetic edit distance between two words, each a sequence of phones
    (as ``tokenize`` returns them).

    ``costs`` prices substitutions (default ``SubstitutionCosts()``); the
    result's ``normalized`` is the distance over the longer token length
    (0 for two empty words).
    With ``bound`` set, returns the exact result when the normalized
    distance is at most ``bound`` and None otherwise. ``trace=True`` ignores
    the bound and additionally returns the aligned edit script. The DP runs
    as ``dp_labels`` on a one-word bucket and books ``stats`` the same way;
    a pair whose length gap alone exceeds the bound is not priced.
    """
    if costs is None:
        costs = SubstitutionCosts()
    if stats is None:
        stats = DpStats()
    m, n = len(source), len(target)
    # the kernel takes nd < best; the next float up admits nd == bound
    best = INF if bound is None or trace else nextafter(bound, INF)
    if band(threshold(best, max(m, n)), m, n) is None:
        stats.prefiltered += 1
        return None
    # candidate label ids are source positions
    prof = [[0.0] + [costs.pair(a, b) for b in target] for a in source]
    stack = dp_stack(m, n)
    hit = dp_labels(Bucket(m, [(tuple(range(m)), "")]), prof, stack, best, "", True, stats)
    if hit is None:
        return None
    ops = None
    if trace:
        ops = _edit_script(source, target, prof, stack)
    return PedResult(distance=stack[m][n], normalized=hit[1], ops_trace=ops)
