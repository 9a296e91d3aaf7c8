"""Phonetic edit distance.

The classic edit-distance recurrence with insertion/deletion at cost 1 and
substitution priced by the articulatory distance of the two phones (0 when
the labels are equal). One row-extension routine, ``dp_labels``, computes
it for ``ped``, its edit-script trace and the greedy list alignment; rows
run over one word and columns over the other, and rows already computed
for a shared prefix are reused.

The all-pairs callers can pass a normalized best-so-far ``bound``. Only the
diagonal band that a path within the bound can reach is filled (Ukkonen's
cutoff), and the DP is abandoned as soon as the minimum of the current row,
divided by the longer length, exceeds the bound. Both tests are lower
bounds on the final distance, so they never discard a candidate that could
still win or tie; results with pruning are bit-identical to results
without.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf as INF

from .distance import SubstitutionCosts
from .tokenizer import PhoneticString


class DpStats:
    """Counters for DP work done.

    Every candidate a query considers counts once in ``prefiltered`` (its
    length gap alone exceeded the bound) or in ``dps``, one ``dp_labels``
    call each; ``abandoned`` counts the visits a row proved hopeless. A
    ``ped`` call is one visit. ``cells`` counts DP cells actually computed.
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


def band(bound: float, maxlen: int, rows: int, cols: int):
    """Diagonals (lo, hi) a DP path scoring at most ``bound`` can touch.

    Cell (i, j) lies on diagonal i - j. Every path through it takes at least
    s = |i-j| + |(rows-i) - (cols-j)| unit steps, and in floats a value built
    from s additions of 1.0 to non-negative numbers is at least s, so a path
    whose distance d satisfies d / maxlen <= bound only visits cells with
    s <= t, t the largest integer with t / maxlen <= bound (the same float
    division as the caller's). Those cells are the diagonals lo..hi; None
    when no path can qualify. An infinite bound gives every diagonal.
    """
    t = rows + cols
    if maxlen and bound * maxlen < t:
        t = int(bound * maxlen)
        while t >= 0 and t / maxlen > bound:
            t -= 1
        while (t + 1) / maxlen <= bound:
            t += 1
    delta = rows - cols
    slack = (t - abs(delta)) // 2
    if slack < 0:
        return None
    return min(0, delta) - slack, max(0, delta) + slack


def dp_labels(x, prof, stack, depth, lo, hi, bound, maxlen, stats):
    """Extend the edit-distance rows of label tuple ``x`` from row ``depth``.

    Rows run over ``x``, columns over a query word of n labels: stack[0] is
    [0, 1, ..., n] and prof[label][j] is the cost of substituting ``label``
    for query label j (prof[label][0] is unused). Rows 1..depth must already
    hold x[:depth]'s rows, even ones that proved an earlier candidate
    hopeless; this overwrites stack[depth + 1:] in place.

    Row i computes only the columns j with lo <= i - j <= hi (see ``band``)
    and sets the column right of them to inf; those are the only cells of a
    row that the next row reads, so a row computed under a wider band stays
    valid under a narrower one. Row minima never decrease down the rows and
    bound the distance from below: once row_min / maxlen > bound, no path
    through the row scores within it, and a candidate resumed from such a
    row fails at its next row (or, with none left, ends above the bound).

    Returns (rows done, distance), with distance None when the last row
    done proved the prefix x[:rows done] hopeless.
    """
    m, n = len(x), len(stack[0]) - 1
    prev = stack[depth]
    cells = 0
    for i in range(depth + 1, m + 1):
        cur = stack[i]
        cost = prof[x[i - 1]]
        jlo = i - hi
        jhi = i - lo
        if jhi < n:
            cur[jhi + 1] = INF
        else:
            jhi = n
        if jlo > 0:
            left = INF
        else:
            jlo = 1
            left = cur[0] = float(i)
        row_min = left
        diag = prev[jlo - 1]
        for j in range(jlo, jhi + 1):
            up = prev[j]
            best = diag + cost[j]
            # min(up, left) + 1.0 == min(up + 1.0, left + 1.0) exactly
            alt = (up if up < left else left) + 1.0
            if alt < best:
                best = alt
            cur[j] = left = best
            if best < row_min:
                row_min = best
            diag = up
        cells += jhi - jlo + 1
        if row_min / maxlen > bound:
            stats.cells += cells
            return i, None
        prev = cur
    stats.cells += cells
    return m, prev[n]


def cost_profile(rows, w):
    """prof[label][j]: substitution cost of ``label`` for w[j - 1], j >= 1."""
    return {label: [0.0] + [row[lw] for lw in w] for label, row in rows.items()}


def _edit_script(x, w, prof, stack):
    """Backtrack a full DP matrix into edit operations, source to target."""
    ops: list[EditOp] = []
    i, j = len(x), len(w)
    while i > 0 or j > 0:
        if i > 0 and j > 0:
            cost = prof[x[i - 1]][j]
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
    source: PhoneticString,
    target: PhoneticString,
    *,
    costs: SubstitutionCosts | None = None,
    bound: float | None = None,
    trace: bool = False,
    stats: DpStats | None = None,
) -> PedResult | None:
    """Phonetic edit distance between two tokenized words.

    ``costs`` prices substitutions (default ``SubstitutionCosts()``); the
    result's ``normalized`` is the distance over the longer token length
    (0 for two empty words).
    With ``bound`` set, returns the exact result when the normalized
    distance is at most ``bound`` and None otherwise. ``trace=True`` ignores
    the bound and additionally returns the aligned edit script.
    """
    if costs is None:
        costs = SubstitutionCosts()
    if stats is None:
        stats = DpStats()
    stats.dps += 1
    x, w = source.labels, target.labels
    maxlen = max(len(x), len(w))
    if bound is None or trace:
        bound = INF
    diagonals = band(bound, maxlen, len(x), len(w))
    if diagonals is None:
        stats.abandoned += 1
        return None
    rows = costs.rows_for(source.phones, target.phones)
    prof = cost_profile(rows, w)
    stack = [[float(j) for j in range(len(w) + 1)] for _ in range(len(x) + 1)]
    _, distance = dp_labels(x, prof, stack, 0, *diagonals, bound, maxlen, stats)
    if distance is not None:
        normalized = distance / maxlen if maxlen else 0.0
    if distance is None or normalized > bound:
        stats.abandoned += 1
        return None
    ops = _edit_script(x, w, prof, stack) if trace else None
    return PedResult(distance=distance, normalized=normalized, ops_trace=ops)

