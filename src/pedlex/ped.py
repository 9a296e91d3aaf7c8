"""Phonetic edit distance.

The classic edit-distance recurrence with insertion/deletion at cost 1 and
substitution priced by the articulatory distance of the two phones (0 when
the labels are equal). One kernel, ``dp_labels``, computes it for ``ped``,
its edit-script trace and the greedy list alignment: one call scans a
bucket of equal-length candidate words against one query word, rows over
the candidate and columns over the query, and reuses the rows of a prefix
shared with the previous candidate. It reads substitution costs from one
table by candidate and query label id, so a query needs no cost profile of
its own.

The kernel cuts its search off at the normalized best-so-far. Only the
diagonal band that a path within it can reach is filled (Ukkonen's cutoff),
and a candidate is abandoned as soon as every cell of the current row is
beyond it once the unit steps still owed to its remaining length gap are
counted (Ukkonen 1985; Spouge 1989): cell (i, j) of an m x n DP owes
|(m-i) - (n-j)| insertions or deletions. Both tests are lower bounds on the
final distance, so they never discard a candidate that could still win or
tie; results with pruning are bit-identical to results without. A greedy
search need not start from an infinite bound: ``start_bound`` prices one
likely near word along its diagonal, a sound upper bound on that word's own
distance, so the first candidate already runs on a narrow band.

The band's shape, a plan (m, n, lo, hi), fixes the columns of every row,
and the kernel runs each plan in one of two tiers that compute the same
cells in the same order, run the same row test and leave the same rows. The
interpreted scan runs any plan. Pruned rows are 2-3 cells wide, and per row
it unpacks the plan, builds a range and tests a sentinel, which costs about
as much as the cells. So a plan whose rows are all narrow, once it has
proved hot, is generated as straight-line code with the rows and columns
unrolled and compiled: the DP rows live in local variables for the whole
scan, row 0 and column 0 are constants, and each cell's gap is a constant
that picks its threshold, which the scan computes from the limit on entry.
A scan moves only the live rows, the ones the next candidate may resume
from, between the stack and its locals. Compiling costs time and memory in
proportion to the plan's cells, so only the narrow, hot plans that carry
most of the work are worth it: wide plans (long words, loose bounds) and
rarely used ones stay interpreted.
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


def start_bound(order, rows, query):
    """A first guess at a query's nearest word: (bound, bucket, index).

    The word is where ``query`` bisects into the first non-empty bucket of
    ``order``, or that bucket's last word when the query sorts after them
    all: the query and the words are numbered alike, by the run's phones in
    label order, so that is the word next to the query in label order. Its
    bound is the word's diagonal alignment in the DP's own float
    order: d = d + rows[x[i]][query[i]] for i < min(m, n) from d = 0.0, then
    |m - n| additions of 1.0, then d / maxlen (0.0 for two empty words).
    Some bucket of ``order`` must hold a word.

    Proof that the word's normalized distance nd is at most the bound. The
    recurrence takes a min over its diagonal, up and left branches, and
    float addition is monotone, so D[i][i] <= fl(D[i-1][i-1] + c) by
    induction from D[0][0] = 0.0: each D[i][i] is at most the chain after i
    steps. The tail of |m - n| unit steps follows the up branch (m > n) or
    the left one (n > m) the same way, so D[m][n] <= d, and division by
    maxlen is monotone.

    So a search may start from (bound, the word's IPA) in place of (inf,
    None), keeping the word when nothing wins. ``dp_labels`` keeps the
    lexicographic (nd, IPA) minimum, and the word's own (nd, IPA) is at or
    below the start, so the start never displaces the true minimum: the
    final pick and its float are those an infinite start gives, and when
    nothing wins, the word is that minimum with nd equal to the bound.
    """
    bucket = next(bucket for bucket in order if bucket.labels)
    labels = bucket.labels
    k = min(bisect_left(labels, query), len(labels) - 1)
    x = labels[k]
    m, n = len(x), len(query)
    d = 0.0
    for i in range(min(m, n)):
        d = d + rows[x[i]][query[i]]
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
    columns 1..cols computed, sentinel column set to inf right of them or 0
    for none, the row's column-0 value or inf when column 0 is outside the
    band, the number of columns, the gap offset). Cell (i, j) owes
    |offset + j - G| unit steps, G = ``max_gap(rows, cols, lo, hi)``. The
    plan keeps a constant number of fields per row: long words have
    thousands of plans.
    """
    spans = [None]
    top = max_gap(rows, cols, lo, hi) + rows - cols
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
        spans.append((jlo, range(jlo, jhi + 1), sentinel, left, jhi - jlo + 1, top - i))
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


def dp_labels(bucket, rows, query, stack, best, best_ipa, prune, stats):
    """Scan one bucket for a candidate nearer than ``best``; the DP kernel.

    Rows run over a candidate, columns over the query word, a tuple of n
    label ids: stack[0] is [0, 1, ..., n], stack[i][0] is i, and
    rows[a][b] is the cost of substituting candidate label id a for query
    label id b, so cell (i, j) of candidate x costs rows[x[i-1]][query[j-1]].
    Candidate k resumes from the rows of the lcp[k] labels it shares with
    the one before, even rows that proved that one hopeless.

    With ``prune`` the search is cut off at ``best``: limit is
    ``threshold(best, maxlen)``, and row i computes only the columns on
    ``band(limit, ...)`` and sets the column right of them to inf; those are
    the only cells of a row that the next row reads, so a row computed under
    a wider band stays valid under a narrower one. A bucket whose length gap
    alone exceeds the limit is booked in ``stats.prefiltered`` and not
    scanned, and the call returns False. Every path to the last cell
    crosses each row, and from cell (i, j) it still owes g = |(m-i) - (n-j)|
    unit steps; ``gap_limits(limit, ...)`` gives per g a threshold above
    which such a cell cannot end within the limit. Once every cell of a
    row's band (column 0 too, when it is in the band) exceeds the threshold
    of its gap, no path through the row scores within best: the candidate is
    abandoned, and a candidate resumed from such a row cannot win either.

    A completed candidate with normalized distance nd wins when nd < best,
    or nd == best and its IPA sorts before ``best_ipa``; with ``prune`` the
    cut-offs then tighten to nd. Returns (index, nd) of the last winner, or
    None when none wins. Books every scanned candidate in ``stats.dps``.

    The bucket is run by scans, one plan (m, n, lo, hi) at a time: each
    scan stops at the first winner, and the scan of the tightened plan takes
    over from the next candidate. A plan runs interpreted, with the
    thresholds of ``gap_limits``, or as a generated scan once it is hot and
    narrow, which takes the limit and computes the same thresholds itself;
    either is called with positional arguments only.

    The live rows are 1..depth, where depth is what the last scan returned.
    Every call starts at depth 0, so no scan reads a row that was not
    written (or, by a generated scan, loaded) in the same call, and rows
    above the depth are dead. A generated scan keeps the DP rows in local
    variables: it loads rows 1..depth from the stack when it resumes after
    a win, and stores rows 1..depth back before it returns, so either tier
    resumes from the live rows the other left. After a win the depth is m,
    so the winner's rows, which ``ped`` reads, are all live.
    """
    m = bucket.length
    n = len(query)
    maxlen = m if m > n else n
    limit = threshold(best, maxlen) if prune else INF
    diagonals = band(limit, m, n)
    labels = bucket.labels
    if diagonals is None:
        stats.prefiltered += len(labels)
        return False
    lcp, ipas = bucket.lcp, bucket.ipas
    hit = None
    k = depth = cells = abandoned = 0
    while True:
        lo, hi = diagonals
        plan = (m, n, lo, hi)
        scan = _compiled.get(plan)
        if scan is not None:
            k, depth, c, a, nd = scan(
                labels, lcp, ipas, rows, query, stack, k, depth, limit, best, best_ipa)
        else:
            limits = gap_limits(limit, max_gap(m, n, lo, hi) + 1)
            k, depth, c, a, nd = _interpret(
                row_spans(*plan), labels, lcp, ipas, rows, query, stack, k, depth, limits,
                best, best_ipa)
            _warm(plan, c)
        cells += c
        abandoned += a
        if nd is None:
            break
        best, best_ipa, hit = nd, ipas[k], (k, nd)
        k += 1
        if prune:
            limit = threshold(nd, maxlen)
            diagonals = band(limit, m, n)
    stats.dps += len(labels)
    stats.cells += cells
    stats.abandoned += abandoned
    return hit


def _interpret(spans, labels, lcp, ipas, rows, query, stack, k, depth, limits, best, best_ipa):
    """Scan candidates k, k + 1, ... on the plan ``spans`` until one wins.

    ``depth`` rows of the stack are live for candidate k - 1, ``limits`` is
    ``gap_limits`` of the limit over the gaps of the plan's cells, and the
    other arguments are those of ``dp_labels``. Returns (index, depth,
    cells, abandoned, nd) at the first winner, or (len(labels), depth,
    cells, abandoned, None) when none wins. Every plan can run here;
    generated scans (``_generate``) must agree with it.
    """
    m = len(spans) - 1
    n = len(query)
    maxlen = m if m > n else n
    vee = limits[:0:-1] + limits  # vee[offset + j] is the threshold of cell (i, j)
    cells = abandoned = 0
    for k in range(k, len(labels)):
        x = labels[k]
        if depth > lcp[k]:
            depth = lcp[k]
        prev = stack[depth]
        for i in range(depth + 1, m + 1):
            jlo, cols, sentinel, left, width, offset = spans[i]
            cur = stack[i]
            cost = rows[x[i - 1]]
            if sentinel:
                cur[sentinel] = INF
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
                depth = i
                abandoned += 1
                break
            prev = cur
        else:
            depth = m
            nd = prev[n] / maxlen if maxlen else 0.0
            if nd < best or (nd == best and ipas[k] < best_ipa):
                return k, depth, cells, abandoned, nd
    return len(labels), depth, cells, abandoned, None


# A scan is generated for a plan whose rows are at most _NARROW cells wide,
# once the interpreted scan has computed _HOT times the plan's own cells on
# it in this process, and at least _HOT_FLOOR; at most _MAX_COMPILED are
# kept. Measured on a 2-core Xeon under CPython 3.11: compiling a plan takes
# 50-80 us per cell of its rows (0.6 ms for 7 cells, 3.2 ms for 53) and
# keeps 3-8 KB, and a generated scan computes a cell about 110 ns faster
# than the interpreted one. So the compile cost grows with the plan's cells,
# and the trigger does too: at 200 times its cells, a plan compiles once the
# interpreted scan has spent about a third of the compile cost on it. That
# is early, because a plan that gets hot early stays hot, and a fresh pool
# worker gains most from compiling its hot plans soon; a flat trigger low
# enough for that compiles long words' plans too. On a six-language corpus
# under two workers, 100-300 times and floors of 512-1,024 ran within noise
# of each other; on two 300-word lists of 8-30 phones, 100 times compiled 9
# plans of 38-53 cells by the second pass, 200 times none. Plans up to 5
# wide hold 98% of the cells of two unrelated 1000-word lists and 95% of a
# six-language corpus (91% and 76% up to 4 wide). The width cap keeps long
# words interpreted: without it, those 300-word lists compiled 128 plans,
# rows up to 28 wide, which took the first pass from 0.6 to 2.6 s and its
# peak RSS from 22 to 41 MB. Both caches change only the speed of a scan,
# never its result.
_NARROW = 5
_HOT = 200
_HOT_FLOOR = 1024
_MAX_COMPILED = 128
_compiled: dict[tuple, object] = {}  # plan -> generated scan
_heat: dict[tuple, float] = {}  # plan -> interpreted cells still to go before it compiles


def _warm(plan, cells):
    """Book ``cells`` of interpreted work on ``plan`` and compile it once hot."""
    if len(_compiled) >= _MAX_COMPILED:
        return
    left = _heat.get(plan)
    if left is None:
        if len(_heat) >= 4096:
            _heat.clear()  # as many plans as row_spans caches; start counting again
        widths = [span[4] for span in row_spans(*plan)[1:]]
        # a wide plan never compiles
        left = INF if max(widths, default=0) > _NARROW else max(_HOT_FLOOR, _HOT * sum(widths))
    left -= cells
    if left > 0:
        _heat[plan] = left
    else:
        _heat.pop(plan, None)
        _compiled[plan] = _generate(*plan)


def _ladder(lines):
    """Function-level code running lines[i - 1] when depth >= i, nested so
    that a scan at depth 0 tests once; the nesting restarts every 32 rows,
    well inside the parser's indentation limit."""
    code = []
    for i, line in enumerate(lines, 1):
        pad = "    " * (1 + (i - 1) % 32)
        code += [f"{pad}if depth >= {i}:", f"{pad}    {line}"]
    return code


def _generate(m, n, lo, hi):
    """The scan of plan (m, n, lo, hi) as straight-line code.

    It does what ``_interpret`` does on ``row_spans(m, n, lo, hi)``, with
    the row and column loops unrolled, and takes the arguments of
    ``_interpret`` with ``limit`` in place of its thresholds. Cell (i, j) of
    rows 1..m is the local v<i>_<j>, and query label j is the local q<j>.
    Row 0 and column 0 are constants, and so is every cell's gap g: its
    threshold is the local t<g>, computed on entry with the expression of
    ``gap_limits``, so it is the same float. The scan loads the band and
    sentinel columns of rows 1..depth from the stack on entry and stores
    them back on return: only live rows move. Row i runs when depth < i,
    the row test is an ``and`` of ``> t<g>`` compares, and cells are booked
    per candidate as a difference of cumulative row widths.
    """
    spans = row_spans(m, n, lo, hi)

    def at(i, j):  # cell (i, j): a constant in row 0 and column 0, else a local
        return repr(float(j)) if i == 0 else repr(float(i)) if j == 0 else f"v{i}_{j}"

    loads, stores, gaps = [], [], set()
    code = [
        "    cells = abandoned = 0",
        "    for k in range(k, len(labels)):",
        "        x = labels[k]",
        "        if depth > lcp[k]:",
        "            depth = lcp[k]",
        "        cells -= CUM[depth]",
    ]
    cum = [0]
    for i in range(1, m + 1):
        jlo, cols, sentinel, left, width, _ = spans[i]
        cum.append(cum[-1] + width)
        if not cols:
            # n = 0: the row is column 0 alone, which passes the test (for
            # n > 0 every row has band columns, so loads[i - 1] is row i)
            continue
        last = sentinel or cols[-1]
        names = ", ".join(at(i, j) for j in range(jlo, last + 1))
        loads.append(f"{names}, = stack[{i}][{jlo}:{last + 1}]")
        stores.append(f"stack[{i}][{jlo}:{last + 1}] = {names},")
        code += [f"        if depth < {i}:", f"            c = rows[x[{i - 1}]]"]
        if sentinel:
            code.append(f"            {at(i, sentinel)} = INF")
        west = None if left == INF else at(i, 0)  # column 0, when in the band
        for j in cols:
            cell, diag, up = at(i, j), at(i - 1, j - 1), at(i - 1, j)
            alt = f"{up} + 1.0" if west is None else f"({up} if {up} < {west} else {west}) + 1.0"
            code += [
                f"            {cell} = {diag} + c[q{j}]",
                f"            a = {alt}",
                f"            if a < {cell}: {cell} = a",
            ]
            west = cell
        if left < INF:
            continue  # column 0 is in the band and passes the row test
        # smallest gap, so largest threshold, first: a row that passes
        # usually passes at its first compare
        order = sorted((abs(m - i - n + j), j) for j in cols)
        gaps.update(g for g, _ in order)
        test = " and ".join(f"{at(i, j)} > t{g}" for g, j in order)
        code += [
            f"            if {test}:",
            f"                depth = {i}",
            "                abandoned += 1",
            f"                cells += {cum[i]}",
            "                continue",
        ]
    maxlen = max(m, n)
    code += [
        f"        depth = {m}",
        f"        cells += {cum[m]}",
        f"        nd = {at(m, n)} / {maxlen}" if maxlen else "        nd = 0.0",
        "        if nd < best or (nd == best and ipas[k] < best_ipa):",
        "            break",
        "    else:",
        "        k, nd = len(labels), None",
        *_ladder(stores),
        "    return k, depth, cells, abandoned, nd",
    ]
    entry = ["def scan(labels, lcp, ipas, rows, query, stack, k, depth, limit, best, best_ipa):"]
    if n:
        entry.append(f"    {', '.join(f'q{j}' for j in range(1, n + 1))}, = query")
    if gaps - {0}:
        entry.append("    u = ulp(limit)")
    entry += [f"    t{g} = limit - {g} + {g + 2} * u" if g else "    t0 = limit"
              for g in sorted(gaps)]
    namespace = {"INF": INF, "CUM": tuple(cum), "ulp": ulp}
    source = "\n".join(entry + _ladder(loads) + code)
    exec(compile(source, f"<scan {m}x{n} {lo}..{hi}>", "exec"), namespace)
    return namespace["scan"]


def dp_stack(rows: int, cols: int) -> list[list[float]]:
    """DP rows for candidates of up to ``rows`` labels against query words of
    up to ``cols``: row 0 is [0, 1, ..., cols], and column 0 of row i is i,
    which ``dp_labels`` reads but never writes."""
    stack = [[float(i)] + [0.0] * cols for i in range(rows + 1)]
    stack[0] = [float(j) for j in range(cols + 1)]
    return stack


def _edit_script(source, target, sub, stack):
    """Backtrack a full DP matrix into edit operations, source to target;
    sub[i - 1][j - 1] prices source[i - 1] against target[j - 1]."""
    x = [p.label for p in source]
    w = [p.label for p in target]
    ops: list[EditOp] = []
    i, j = len(x), len(w)
    while i > 0 or j > 0:
        if i > 0 and j > 0:
            cost = sub[i - 1][j - 1]
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
    # label ids are positions: rows[i][j] prices source[i] against target[j]
    rows = [[costs.pair(a, b) for b in target] for a in source]
    stack = dp_stack(m, n)
    bucket = Bucket(m, [(tuple(range(m)), "")])
    hit = dp_labels(bucket, rows, tuple(range(n)), stack, best, "", True, stats)
    if not hit:
        return None
    ops = None
    if trace:
        ops = _edit_script(source, target, rows, stack)
    return PedResult(distance=stack[m][n], normalized=hit[1], ops_trace=ops)
