"""Phonetic edit distance.

The classic edit-distance recurrence with insertion/deletion at cost 1 and
substitution priced by the articulatory distance of the two phones (0 when
the labels are equal). One kernel computes it for the greedy list
alignment, and for ``ped`` and its edit-script trace: a ``dp_labels`` call
scans a bucket of equal-length candidate words against one query word, rows
over the candidate and columns over the query, each candidate from row 0,
and ``ped`` runs the kernel's interpreted scan, unpruned, on its one pair.
Each candidate carries its cost rows, row i pricing its label i against
every query label id, so a query needs no cost profile of its own.

``dp_labels`` cuts its search off at the normalized best-so-far. Only the
diagonal band that a path within it can reach is filled (Ukkonen's cutoff),
and a candidate is abandoned as soon as every cell of the current row is
beyond it once the unit steps still owed to its remaining length gap are
counted (Ukkonen 1985; Spouge 1989): cell (i, j) of an m x n DP owes
|(m-i) - (n-j)| insertions or deletions. Both tests are lower bounds on the
final distance, so they never discard a candidate that could still win or
tie; results with pruning are bit-identical to results without. A bucket
whose band is empty, its length gap alone beyond the limit, is not scanned.

The greedy list alignment's search is here too: in ``greedy_total`` each
query, in the caller's order, claims its nearest unclaimed word of the long
list, which is held in buckets of equal token length that a query visits
nearest length first. One ``nearest`` call is a query's whole search. It
need not start from an infinite bound: ``start_bound`` prices the word next
to the query in label order in the nearest-length bucket along its
diagonal, a sound upper bound on that word's own distance, so the first
candidate already runs on a narrow band, and the pick is the one an
infinite start makes.

The band's shape, a plan (m, n, lo, hi), fixes the columns of every row;
its diagonals lo..hi are what ``band`` returns for the limit. A scan
runs one plan over a bucket's candidates. At a win it tightens its
thresholds in place as long as the tighter limit keeps its plan, which most
wins do, and hands over to the narrower plan's scan otherwise. Each plan
runs in one of two tiers that compute the same cells in the same order and
run the same row test. In both a cell outside the band counts as inf. The
interpreted scan runs any plan on fresh rows, inf outside row 0 and column
0, and writes only its band. Pruned rows are 2-3 cells wide, and per row it
unpacks the plan and builds a range, which costs about as much as the
cells. So a plan whose rows are all narrow is generated, at its first scan,
as straight-line code with the rows and columns unrolled and compiled: the
DP rows live in local variables for the whole scan, row 0, column 0 and the
cells outside the band are constants folded into the code, and each cell's
gap is a constant that picks its threshold. It writes nothing: the DP
stack is the interpreted scan's scratch space, and ``ped``'s full matrix.
Compiling costs time and memory in proportion to the plan's cells, so a
plan compiles exactly when its widest row is at most ``_NARROW`` cells, and
wide plans (long words, loose bounds) stay interpreted. That is the one
rule, so the scans a process keeps are bounded by its word lengths, not by
its lists' sizes.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from math import floor, inf as INF, nextafter, ulp

from .distance import SubstitutionCosts
from .features import Phone


class DpStats:
    """Counters for DP work done.

    Every candidate a query considers counts once in ``prefiltered`` (its
    length gap alone exceeded the bound) or in ``dps`` (its DP started);
    ``abandoned`` counts the candidates a row proved hopeless. ``cells``
    counts DP cells actually computed.
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
    # (min(0, delta) - slack, max(0, delta) + slack), spelled out: every scan start calls band
    return (delta - slack, slack) if delta < 0 else (-slack, delta + slack)


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


def gap_limits(limit: float, size: int) -> list[float]:
    """Row-test thresholds T[0..size-1]: T[g] for a cell that owes g unit steps.

    A DP value r that owes g more steps of cost 1.0 ends at least at the
    float chain F^g(r), F(x) = x + 1.0: the other steps add costs >= 0, and
    float addition is monotone. T[g] is a float with F^g(r) > limit for every
    r > T[g], so ``r > T[g]`` proves that a path through the cell ends above
    the limit. T[0] is the limit itself.

    Proof that T[g] = (limit - g) + (g + 2) * u, u = ulp(limit), is such a
    bound for g >= 1, in float arithmetic. Let r >= 0 with F^g(r) <= limit.
    Every step y = F^k(r) + 1.0 rounds to a float <= limit, so y <= limit +
    u/2, where floats lie at most u apart: each step loses at most u/2 and
    r <= limit - g + g*u/2. Now T[g]:
    - limit < g: F^g(r) >= F^g(0) = g > limit for every r >= 0, and DP values
      are never negative, so no cell owing g steps is within the limit.
    - limit >= g: 0 <= limit - g <= limit rounds by at most u/2, and
      (g + 2) * u is exact (or inf), so the sum s before the last rounding
      is at least limit - g + (g + 1.5) * u. If u < 1, s <= limit + 2.5 * u,
      where floats lie at most 2u apart, and T[g] >= s - u >= limit - g +
      g*u/2 >= r. If u >= 1, s > limit, so T[g] >= limit >= F^g(r) >= r.
    An infinite limit gives inf for every g.
    """
    u = ulp(limit)
    return [limit] + [limit - g + (g + 2) * u for g in range(1, size)]


def start_bound(order, query):
    """A first guess at a query's nearest word: (bound, bucket, index).

    The word is where ``query`` bisects into the first non-empty bucket of
    ``order``, or that bucket's last word when the query sorts after them
    all: the query and the words are numbered alike, by the run's phones in
    label order, so that is the word next to the query in label order. Its
    bound is the word's diagonal alignment in the DP's own float order, x
    its cost rows: d = d + x[i][query[i]] for i < min(m, n) from d = 0.0,
    then |m - n| additions of 1.0, then d / maxlen (0.0 for two empty
    words). Some bucket of ``order`` must hold a word.

    Proof that the word's normalized distance nd is at most the bound. The
    recurrence takes a min over its diagonal, up and left branches, and
    float addition is monotone, so D[i][i] <= fl(D[i-1][i-1] + c) by
    induction from D[0][0] = 0.0: each D[i][i] is at most the chain after i
    steps. The tail of |m - n| unit steps follows the up branch (m > n) or
    the left one (n > m) the same way, so D[m][n] <= d, and division by
    maxlen is monotone.

    So ``nearest`` may start from (bound, the word's IPA) in place of (inf,
    None), keeping the word when nothing wins. ``dp_labels`` keeps the
    lexicographic (nd, IPA) minimum, and the word's own (nd, IPA) is at or
    below the start, so the start never displaces the true minimum: the
    final pick and its float are those an infinite start gives, and when
    nothing wins, the word is that minimum with nd equal to the bound.
    """
    bucket = next(bucket for bucket in order if bucket.labels)
    labels = bucket.labels
    k = min(bisect_left(labels, query), len(labels) - 1)
    x = bucket.costs[k]
    m, n = len(x), len(query)
    d = 0.0
    for i in range(min(m, n)):
        d = d + x[i][query[i]]
    for _ in range(abs(m - n)):
        d = d + 1.0
    maxlen = m if m > n else n
    return (d / maxlen if maxlen else 0.0), bucket, k


def max_gap(rows: int, cols: int, lo: int, hi: int) -> int:
    """The most unit steps g = |(rows-i) - (cols-j)| that a cell on diagonals
    lo..hi still owes: g = |(i-j) - (rows-cols)|, and lo <= rows-cols <= hi."""
    delta = rows - cols
    return max(delta - lo, hi - delta)


@lru_cache(maxsize=4096)
def row_spans(rows: int, cols: int, lo: int, hi: int) -> tuple:
    """Per-row plan of the DP cells on diagonals lo..hi (see ``band``).

    Entry i (1..rows; entry 0 is unused) is (first column, range of the
    columns 1..cols computed, the row's column-0 value or inf when column 0
    is outside the band, the number of columns, the gap offset). Cell (i, j)
    owes |offset + j - G| unit steps, G = ``max_gap(rows, cols, lo, hi)``.
    The plan keeps a constant number of fields per row: long words have
    thousands of plans.
    """
    spans = [None]
    top = max_gap(rows, cols, lo, hi) + rows - cols
    for i in range(1, rows + 1):
        jlo, jhi = i - hi, min(i - lo, cols)
        left = INF
        if jlo <= 0:
            jlo, left = 1, float(i)
        spans.append((jlo, range(jlo, jhi + 1), left, jhi - jlo + 1, top - i))
    return tuple(spans)


class Bucket:
    """Candidate words of one token length, sorted by (labels, ipa).

    ``labels`` holds label-id tuples, ``ipas`` the IPA string of each (it
    breaks distance ties) and ``costs`` its cost rows: rows[a] for each of
    its label ids a, where rows[a][b] prices a against query label id b.
    """

    __slots__ = ("length", "labels", "ipas", "costs")

    def __init__(self, length, entries, rows):
        entries.sort()
        self.length = length
        self.labels = [labels for labels, _ in entries]
        self.ipas = [ipa for _, ipa in entries]
        self.costs = [tuple([rows[a] for a in labels]) for labels in self.labels]

    def remove(self, k):
        del self.labels[k], self.ipas[k], self.costs[k]


def least_limit(rows: int, cols: int, lo: int, hi: int) -> int:
    """The smallest integer t whose ``band(t, rows, cols)`` is lo..hi, the
    inverse of ``band``: every t from it up to the next plan's least limit,
    or past rows + cols, gives the same diagonals, so a limit keeps a plan
    exactly when its floor is at least this."""
    delta = rows - cols
    return abs(delta) + 2 * (hi - max(0, delta))


def dp_labels(bucket, query, best, best_ipa, prune, stats):
    """Scan one bucket for a candidate nearer than ``best``; the DP kernel.

    Rows run over a candidate, columns over the query word, a tuple of n
    label ids: row 0 is [0, 1, ..., n], column 0 of row i is i, and cell (i,
    j) of a candidate with cost rows x (``bucket.costs``) costs
    x[i-1][query[j-1]]. Each candidate computes its rows from row 0.

    With ``prune`` the search is cut off at ``best``: limit is
    ``threshold(best, maxlen)``, and row i computes only the columns on
    ``band(limit, ...)``; every cell outside the band counts as inf. The band
    is empty when |m - n| > limit, which by ``threshold``'s defining property
    is when fl(|m - n| / maxlen) > best (never without ``prune`` or for two
    empty words, whose limit is inf): the bucket is then booked in
    ``stats.prefiltered`` and not scanned. Every path to the last cell
    crosses each row, and from cell (i, j) it still owes g = |(m-i) - (n-j)|
    unit steps; ``gap_limits(limit, ...)`` gives per g a threshold above
    which such a cell cannot end within the limit. Once every cell of a
    row's band (column 0 too, when it is in the band) exceeds the threshold
    of its gap, no path through the row scores within best: the candidate
    is abandoned.

    A completed candidate with normalized distance nd wins when nd < best,
    or nd == best and its IPA sorts before ``best_ipa``; with ``prune`` the
    cut-offs then tighten to nd. Returns (index, nd) of the last winner, or
    None when none wins. Books every candidate of a scanned bucket in
    ``stats.dps``, and those that did not complete in ``stats.abandoned``.

    Each scan runs one plan, (m, n, *band(limit, m, n)) at its start, over
    the bucket's candidates. At a win it works out the tightened limit, and
    while that limit keeps its plan (it is at least the plan's
    ``least_limit``) it retunes its thresholds and goes on; it returns only
    at the bucket's end and at a win that narrows the band (without
    ``prune`` the band never narrows). The scan of the narrower plan takes
    over from the next candidate. A narrow plan runs as a generated scan
    from its first scan on (``_compile``), any other interpreted; both take
    the same positional arguments after the interpreted scan's plan and
    stack and return (last index scanned, cells, completed candidates,
    index of the last winner or None, best, limit).

    A generated scan keeps the DP rows in local variables and writes
    nothing; each interpreted scan computes them on fresh ``dp_stack`` rows.
    Its plan, and so its band, holds for the whole scan, so every cell
    outside the band that a row reads still holds ``dp_stack``'s inf.
    """
    m = bucket.length
    n = len(query)
    maxlen = m if m > n else n
    limit = threshold(best, maxlen) if prune else INF
    costs, ipas = bucket.costs, bucket.ipas
    end = len(costs)
    if abs(m - n) > limit:  # ``band``'s own emptiness test
        stats.prefiltered += end
        return None
    hit = None
    k = cells = completed = 0
    while k < end:
        # the first plan, or the narrower one of the win the last scan stopped at
        plan = (m, n, *band(limit, m, n))
        scan = _compiled.get(plan) or _compile(plan)
        if scan is not None:
            k, c, done, win, best, limit = scan(
                costs, ipas, query, k, limit, best, best_ipa, prune)
        else:
            k, c, done, win, best, limit = _interpret(
                plan, dp_stack(m, n), costs, ipas, query, k, limit, best, best_ipa, prune)
        cells += c
        completed += done
        if win is not None:
            best_ipa, hit = ipas[win], (win, best)
        k += 1
    stats.dps += end
    stats.cells += cells
    stats.abandoned += end - completed
    return hit


def nearest(order, query, prune, stats):
    """(nd, bucket, index) of the query's nearest word in ``order``'s
    buckets, ties to the smaller IPA, from ``start_bound``'s word. Each
    bucket is one ``dp_labels`` call."""
    best, found, k = start_bound(order, query)
    best_ipa = found.ipas[k]
    for bucket in order:
        hit = dp_labels(bucket, query, best, best_ipa, prune, stats)
        if hit:
            k, best = hit
            found, best_ipa = bucket, bucket.ipas[k]
    return best, found, k


def greedy_total(queries, long_, rows, prune, stats):
    """Σ over the queries, in order, of the normalized PED to the nearest
    unclaimed word of ``long_`` (ties to the smaller IPA), which it claims.

    ``long_`` maps the long list's IPA strings to label-id tuples, and
    rows[a][b] prices its label id a against query label id b; the buckets
    keep each word's cost rows, so the search below reads no table. Buckets
    of equal length distance from a query are visited shorter first.
    """
    by_length: dict[int, list] = {}
    for ipa, labels in long_.items():
        by_length.setdefault(len(labels), []).append((labels, ipa))
    buckets = [Bucket(length, by_length[length], rows) for length in sorted(by_length)]
    visits: dict[int, list] = {}  # bucket visit order per query length
    total = 0.0
    for w in queries:
        n = len(w)
        order = visits.get(n)
        if order is None:
            order = visits[n] = sorted(buckets, key=lambda b: (abs(b.length - n), b.length))
        best, bucket, k = nearest(order, w, prune, stats)
        total += best
        bucket.remove(k)
    return total


def _interpret(plan, stack, costs, ipas, query, k, limit, best, best_ipa, prune):
    """Scan candidates k, k + 1, ... on ``plan``, their rows on ``stack``
    (fresh ``dp_stack`` rows, of which it writes only the band).

    The other arguments are those ``dp_labels`` passes a scan, and so is the
    result (see there). Every plan can run here; generated scans
    (``_generate``) must agree with it: the same cells in the same order,
    and the same row tests and results. ``ped`` reads its rows off the stack.
    """
    spans = row_spans(*plan)
    m, n = plan[0], plan[1]
    maxlen = m if m > n else n
    least = least_limit(*plan)
    size = max_gap(*plan) + 1
    limits = gap_limits(limit, size)
    vee = limits[:0:-1] + limits  # vee[offset + j] is the threshold of cell (i, j)
    cells = completed = 0
    win = None
    for k in range(k, len(costs)):
        x = costs[k]
        prev = stack[0]
        for i in range(1, m + 1):
            jlo, cols, left, width, offset = spans[i]
            cur = stack[i]
            cost = x[i - 1]
            # column 0 in the band passes the row test: its value i plus its
            # gap counts the unit steps of a path, which ``band`` kept within
            # the limit
            within = left < INF
            diag = prev[jlo - 1]
            for j in cols:
                up = prev[j]
                d = diag + cost[query[j - 1]]
                # min(up, left) + 1.0 == min(up + 1.0, left + 1.0) exactly
                alt = (up if up < left else left) + 1.0
                if alt < d:
                    d = alt
                cur[j] = left = d
                if not d > vee[offset + j]:  # as generated scans test: NaN passes
                    within = True
                diag = up
            cells += width
            if not within:  # every cell of the row ends beyond the limit
                break
            prev = cur
        else:
            completed += 1
            nd = prev[n] / maxlen if maxlen else 0.0
            if nd < best or (nd == best and ipas[k] < best_ipa):
                win, best, best_ipa = k, nd, ipas[k]
                if not prune:
                    continue
                limit = threshold(nd, maxlen)
                if limit >= least:  # the band holds: retune and go on
                    limits = gap_limits(limit, size)
                    vee = limits[:0:-1] + limits
                    continue
                break
    return k, cells, completed, win, best, limit


# A plan compiles at its first scan exactly when its widest row is at most
# _NARROW cells: -1 runs every plan interpreted, inf compiles every plan.
# Measured on a 2-core Xeon under CPython 3.11: compiling a plan takes about
# 0.4 ms plus 45 us per cell of its rows (0.5 ms for 1 cell, 1.7 ms for 28)
# and keeps 6-15 KB, and a generated scan computes a cell about 200 ns faster
# than the interpreted one, which takes about 300 ns. Most narrow plans are
# scanned often: a trigger of 200 times a plan's cells compiled 69 of a
# six-language corpus's 86 narrow plans within one pass anyway. Compiling at
# the first scan costs most where many plans are each scanned a few times:
# on two unrelated 300-word lists of 2-20 phones it takes the first pass
# from 0.20 to 0.28 s (the second from 0.20 to 0.19 s). Plans up to 5 wide
# hold 98% of the cells of two unrelated 1000-word lists and 95% of a
# six-language corpus. The width cap keeps long words interpreted: without
# it, compiling the first 128 plans of two 300-word lists of 8-30 phones,
# rows up to 28 wide, took the first pass from 0.6 to 2.6 s and its peak RSS
# from 22 to 41 MB. It also bounds the cache by word length: of the plans
# (m, n, *band(t, m, n)) with m, n <= 8, 12, 20 and 30, 190, 337, 633 and
# 1,003 are narrow, and compiling all 633 of the 20-phone set takes 0.83 s
# and keeps 4.1 MB (1,003: 1.7 s, 8.8 MB). The tier changes only the speed
# of a scan, never its result.
_NARROW = 5
_compiled: dict[tuple, object] = {}  # plan -> generated scan


def _compile(plan):
    """The generated scan of ``plan``, now kept in ``_compiled``, or None
    for a plan whose widest row, min(hi - lo + 1, n) cells (none when m is
    0), is wider than _NARROW."""
    m, n, lo, hi = plan
    if (min(hi - lo + 1, n) if m else 0) > _NARROW:
        return None
    scan = _compiled[plan] = _generate(*plan)
    return scan


def _generate(m, n, lo, hi):
    """The scan of plan (m, n, lo, hi) as straight-line code.

    It does what ``_interpret`` does on the plan, with the row and column
    loops unrolled, and takes the arguments that follow ``_interpret``'s
    stack. Cell (i, j) of rows 1..m is the local v<i>_<j>, and query label j
    is the local q<j>. Row 0 and column 0 are constants and cells outside
    the band are inf, so both fold into each cell's expressions when the
    scan is generated: a cell whose up neighbour lies outside the band reads
    only its west one. Every cell's gap g is a constant that picks its
    threshold, the local t<g>, computed with the expression of
    ``gap_limits`` on entry and again at each win that keeps the plan, so it
    is the same float. The scan reads and writes no stack. The row test is
    an ``and`` of ``> t<g>`` compares, and a candidate books the cells of
    the rows it computed as one constant: their cumulative width.
    """
    spans = row_spans(m, n, lo, hi)

    def at(i, j):  # cell (i, j) as code: a float in row 0 and column 0, None outside the band
        if i == 0:
            return repr(float(j))
        if j == 0:
            return repr(float(i)) if i <= hi else None
        return f"v{i}_{j}" if lo <= i - j <= hi else None

    gaps = set()
    code = [
        "    cells = completed = 0",
        "    win = None",
        "    for k in range(k, len(costs)):",
        "        x = costs[k]",
    ]
    cum = 0
    for i in range(1, m + 1):
        _, cols, left, width, _ = spans[i]
        cum += width
        if not cols:
            continue  # n = 0: the row is column 0 alone, which passes the test
        code.append(f"        c = x[{i - 1}]")
        for j in cols:
            cell, diag = at(i, j), at(i - 1, j - 1)
            code.append(f"        {cell} = {diag} + c[q{j}]")
            # alt = (up if up < west else west) + 1.0, with a neighbour
            # outside the band dropped; the compiler folds a constant's + 1.0
            up, west = at(i - 1, j), at(i, j - 1)
            if up is None and west is None:
                continue
            if up is None or west is None:
                alt = f"{west if up is None else up} + 1.0"
            elif "v" not in up + west:  # cell (1, 1) with column 0 in the band
                alt = repr(min(float(up), float(west)) + 1.0)
            elif up.startswith("v") and west.startswith("v"):
                alt = f"({up} if {up} < {west} else {west}) + 1.0"
            else:  # one neighbour is a row-0 or column-0 constant
                alt = f"{up} + 1.0 if {up} < {west} else {west} + 1.0"
            if "v" in alt:  # alt reads a cell; a constant one is folded
                code += [f"        a = {alt}", f"        if a < {cell}: {cell} = a"]
            else:
                code.append(f"        if {alt} < {cell}: {cell} = {alt}")
        if left < INF:
            continue  # column 0 is in the band and passes the row test
        # smallest gap, so largest threshold, first: a row that passes
        # usually passes at its first compare
        order = sorted((abs(m - i - n + j), j) for j in cols)
        gaps.update(g for g, _ in order)
        test = " and ".join(f"{at(i, j)} > t{g}" for g, j in order)
        code += [
            f"        if {test}:",
            f"            cells += {cum}",
            "            continue",
        ]

    def tune(pad):  # the thresholds of ``limit``, as gap_limits computes them
        lines = [f"{pad}u = ulp(limit)"] if gaps - {0} else []
        return lines + [f"{pad}t{g} = limit - {g} + {g + 2} * u" if g else f"{pad}t0 = limit"
                        for g in sorted(gaps)]

    maxlen = max(m, n)
    code += [
        f"        cells += {cum}",
        "        completed += 1",
        f"        nd = {at(m, n)} / {maxlen}" if maxlen else "        nd = 0.0",
        "        if nd < best or (nd == best and ipas[k] < best_ipa):",
        "            win, best, best_ipa = k, nd, ipas[k]",
        "            if not prune:",
        "                continue",
        f"            limit = threshold(nd, {maxlen})",
        f"            if limit >= {least_limit(m, n, lo, hi)}:",
        *tune(" " * 16),
        "                continue",
        "            break",
        "    return k, cells, completed, win, best, limit",
    ]
    entry = ["def scan(costs, ipas, query, k, limit, best, best_ipa, prune):"]
    if n:
        entry.append(f"    {', '.join(f'q{j}' for j in range(1, n + 1))}, = query")
    namespace = {"ulp": ulp, "threshold": threshold}
    source = "\n".join(entry + tune("    ") + code)
    exec(compile(source, f"<scan {m}x{n} {lo}..{hi}>", "exec"), namespace)
    return namespace["scan"]


def dp_stack(rows: int, cols: int) -> list[list[float]]:
    """Fresh DP rows for one scan of a ``rows`` x ``cols`` plan: row 0 is
    [0, 1, ..., cols], column 0 of row i is i, and every other cell is inf,
    as a cell outside the band counts."""
    row0 = [float(j) for j in range(cols + 1)]
    return [row0] + [[float(i)] + [INF] * cols for i in range(1, rows + 1)]


def _edit_script(source, target, sub, matrix):
    """Backtrack a full DP matrix into edit operations, source to target;
    sub[i - 1][j - 1] prices source[i - 1] against target[j - 1]."""
    x = [p.label for p in source]
    w = [p.label for p in target]
    ops: list[EditOp] = []
    i, j = len(x), len(w)
    while i > 0 or j > 0:
        if i > 0 and j > 0:
            cost = sub[i - 1][j - 1]
            if matrix[i][j] == matrix[i - 1][j - 1] + cost:
                op = "match" if x[i - 1] == w[j - 1] else "substitute"
                ops.append(EditOp(op, x[i - 1], w[j - 1], cost))
                i -= 1
                j -= 1
                continue
        if i > 0 and matrix[i][j] == matrix[i - 1][j] + 1.0:
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
    trace: bool = False,
) -> PedResult:
    """Phonetic edit distance between two words, each a sequence of phones
    (as ``tokenize`` returns them).

    ``costs`` prices substitutions (default ``SubstitutionCosts()``); the
    result's ``normalized`` is the distance over the longer token length
    (0 for two empty words). ``trace=True`` additionally returns the aligned
    edit script. The DP is the kernel's interpreted scan of one candidate
    on the full band.
    """
    if costs is None:
        costs = SubstitutionCosts()
    m, n = len(source), len(target)
    # the one candidate's cost rows: rows[i][j] prices source[i] against target[j]
    rows = costs.rows_for(source, target)
    stack = dp_stack(m, n)
    _, _, _, _, normalized, _ = _interpret(
        (m, n, *band(INF, m, n)), stack, [tuple(rows)], [""], tuple(range(n)), 0, INF, INF, "",
        False)
    ops = None
    if trace:
        ops = _edit_script(source, target, rows, stack)
    return PedResult(distance=stack[m][n], normalized=normalized, ops_trace=ops)
