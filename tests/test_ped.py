import importlib
import math
import random
import struct
from contextlib import contextmanager

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pedlex import (
    DistanceConfig,
    DpStats,
    EditOp,
    SubstitutionCosts,
    WordList,
    align_lists,
    default_inventory,
    default_manner_table,
    paper_voice,
    ped,
    phonetic_difference,
    tokenize,
)
from pedlex.ped import (
    Bucket, band, dp_labels, gap_limits, least_limit, max_gap, nearest, row_spans, start_bound,
    threshold,
)

# the package re-exports a function named ``ped``, so import the module by path
kernel = importlib.import_module("pedlex.ped")

INV = default_inventory()
XI = default_manner_table()
CFG = DistanceConfig()
COSTS = SubstitutionCosts(CFG, XI)
LABELS = sorted(INV.labels())


def ps(text):
    return tokenize(text, INV)


def word_to_ps(labels):
    # built directly so adjacent labels never merge into a longer symbol
    return tuple(INV[l] for l in labels)


def naive_ped(a, b):
    """Exhaustive recursion over all edit scripts; the independent oracle."""

    def rec(i, j):
        if i == 0 or j == 0:
            return float(max(i, j))
        best = rec(i - 1, j) + 1.0
        alt = rec(i, j - 1) + 1.0
        if alt < best:
            best = alt
        alt = rec(i - 1, j - 1) + phonetic_difference(a[i - 1], b[j - 1], CFG, XI)
        if alt < best:
            best = alt
        return best

    return rec(len(a), len(b))


def unit_levenshtein(a, b):
    la, lb = [p.label for p in a], [p.label for p in b]
    prev = list(range(len(lb) + 1))
    for i, ca in enumerate(la, 1):
        cur = [i]
        for j, cb in enumerate(lb, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return float(prev[-1])


def random_word(rng, max_len=6, min_len=0):
    return tuple(rng.choice(LABELS) for _ in range(rng.randint(min_len, max_len)))


# ---------------------------------------------------------------- goldens


def test_word_golden_pen_bend():
    result = ped(ps("pɛn"), ps("bɛnd"), costs=COSTS)
    assert result.distance == pytest.approx(1.200, abs=0.002)
    assert 1.0 < result.distance < 2.0


def test_word_golden_father_words():
    result = ped(ps("fa:tər"), ps("pedær"), costs=COSTS)
    assert result.distance == pytest.approx(0.800, abs=0.005)


def test_word_golden_greeting_words():
    result = ped(ps("ʃəlɒm"), ps("səla:m"), costs=COSTS)
    assert result.distance == pytest.approx(0.800, abs=0.005)
    # a word built from labels is the same tuple of phones
    by_label = word_to_ps(["s", "ə", "l", "a:", "m"])
    assert by_label == ps("səla:m")
    assert ped(word_to_ps(["ʃ", "ə", "l", "ɒ", "m"]), by_label, costs=COSTS) == result


def test_identical_strings_cost_zero():
    for text in ["", "a", "ʃəlɒm", "t̪ʰumhɛ:n"]:
        assert ped(ps(text), ps(text), costs=COSTS).distance == 0.0


def test_empty_versus_nonempty_is_pure_insertion():
    result = ped(ps(""), ps("abc"), costs=COSTS)
    assert result.distance == 3.0
    assert result.normalized == 1.0


def test_both_empty():
    result = ped(ps(""), ps(""), costs=COSTS)
    assert result.distance == 0.0
    assert result.normalized == 0.0


def test_normalized_golden():
    normalized = ped(ps("fa:tər"), ps("pedær"), costs=COSTS).normalized
    assert normalized == pytest.approx(0.160, abs=0.001)


def test_one_cost_handle_serves_two_inventories():
    # costs depend on the phones' features, never on their labels alone
    costs = SubstitutionCosts()
    assert ped(ps("s"), ps("z"), costs=costs).distance == pytest.approx(0.2)
    paper = paper_voice(INV)  # s voiced, like z
    assert ped(tokenize("s", paper), tokenize("z", paper), costs=costs).distance == 0.0


def test_config_travels_only_in_the_cost_handle():
    literal = DistanceConfig(literal_vowel_branch=True)
    with pytest.raises(TypeError):
        ped(ps("i"), ps("ɪ"), literal, costs=SubstitutionCosts())
    result = ped(ps("i"), ps("ɪ"), costs=SubstitutionCosts(literal))
    assert result.distance == pytest.approx(0.4733, abs=1e-4)


# ---------------------------------------------------------------- oracle


def test_dp_matches_exhaustive_recursion_sampled():
    rng = random.Random(42)
    for _ in range(60):
        a, b = word_to_ps(random_word(rng, 5)), word_to_ps(random_word(rng, 5))
        assert ped(a, b, costs=COSTS).distance == naive_ped(a, b)


# ---------------------------------------------------------------- properties


@st.composite
def phone_words(draw, max_size=7):
    labels = draw(st.lists(st.sampled_from(LABELS), max_size=max_size))
    return word_to_ps(tuple(labels))


@given(phone_words(), phone_words())
def test_symmetry_exact(a, b):
    assert ped(a, b, costs=COSTS).distance == ped(b, a, costs=COSTS).distance


@given(phone_words(), phone_words())
def test_bounds(a, b):
    d = ped(a, b, costs=COSTS).distance
    assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))


@given(phone_words(), phone_words())
def test_dominated_by_unit_levenshtein(a, b):
    assert ped(a, b, costs=COSTS).distance <= unit_levenshtein(a, b)


@given(phone_words(), phone_words(), st.sampled_from(LABELS))
def test_prefix_monotonicity(a, b, extra):
    base = ped(a, b, costs=COSTS).distance
    a2 = word_to_ps([p.label for p in a] + [extra])
    b2 = word_to_ps([p.label for p in b] + [extra])
    assert ped(a2, b2, costs=COSTS).distance <= base + 1e-12


def pair_scan(a, b, bound, stats=None):
    """The kernel's pruned search on the one pair (a, b): ``dp_labels`` over
    a bucket of the one candidate a, priced by position against the query b
    as ``ped`` prices it. The candidate's IPA is "" and ``best_ipa`` sorts
    after it, so a candidate with nd == bound wins. Returns the winner's nd,
    or None when the candidate does not win."""
    m, n = len(a), len(b)
    bucket = Bucket(m, [(tuple(range(m)), "")], COSTS.rows_for(a, b))
    hit = dp_labels(bucket, tuple(range(n)), bound, "~", True,
                    DpStats() if stats is None else stats)
    return None if hit is None else hit[1]


@given(phone_words(), phone_words())
@settings(max_examples=60)
def test_pruned_equals_unpruned(a, b):
    exact = ped(a, b, costs=COSTS)
    # a bound at the true value must not abandon, and must agree bit for bit
    at_bound = pair_scan(a, b, exact.normalized)
    assert at_bound is not None
    assert at_bound.hex() == exact.normalized.hex()
    # a bound below the true value may abandon, never mis-report
    below = pair_scan(a, b, exact.normalized - 1e-9)
    if below is not None:
        assert below.hex() == exact.normalized.hex()


@given(phone_words(), phone_words(), st.data())
@settings(max_examples=200)
def test_random_bound_exact_or_none(a, b, data):
    exact = ped(a, b, costs=COSTS)
    near = [exact.normalized, math.nextafter(exact.normalized, -math.inf),
            math.nextafter(exact.normalized, math.inf)]
    bound = data.draw(st.one_of(st.sampled_from(near + [-math.inf]), st.floats(-0.5, 1.5)))
    result = pair_scan(a, b, bound)
    if result is None:
        assert exact.normalized > bound
    else:
        assert exact.normalized <= bound
        assert result.hex() == exact.normalized.hex()


def reference_trace(src, tgt, costs):
    """Full-matrix DP plus backtrack, as a separate routine; returns (distance, ops)."""
    m, n = len(src), len(tgt)
    dist = [[0.0] * (n + 1) for _ in range(m + 1)]
    for i in range(1, m + 1):
        dist[i][0] = float(i)
    for j in range(1, n + 1):
        dist[0][j] = float(j)
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            best = dist[i - 1][j - 1] + costs.pair(src[i - 1], tgt[j - 1])
            alt = dist[i - 1][j] + 1.0
            if alt < best:
                best = alt
            alt = dist[i][j - 1] + 1.0
            if alt < best:
                best = alt
            dist[i][j] = best
    ops = []
    i, j = m, n
    while i > 0 or j > 0:
        if i > 0 and j > 0:
            cost = costs.pair(src[i - 1], tgt[j - 1])
            if dist[i][j] == dist[i - 1][j - 1] + cost:
                op = "match" if src[i - 1].label == tgt[j - 1].label else "substitute"
                ops.append(EditOp(op, src[i - 1].label, tgt[j - 1].label, cost))
                i -= 1
                j -= 1
                continue
        if i > 0 and dist[i][j] == dist[i - 1][j] + 1.0:
            ops.append(EditOp("delete", src[i - 1].label, None, 1.0))
            i -= 1
            continue
        ops.append(EditOp("insert", None, tgt[j - 1].label, 1.0))
        j -= 1
    ops.reverse()
    return dist[m][n], tuple(ops)


# few labels, so words share phones and the backtrack meets ties
trace_words = st.lists(st.sampled_from(["p", "b", "m", "a", "a:", "i", "s"]), max_size=7).map(
    lambda labels: word_to_ps(tuple(labels))
)


@given(st.one_of(phone_words(), trace_words), st.one_of(phone_words(), trace_words))
@settings(max_examples=200)
def test_trace_matches_reference(a, b):
    result = ped(a, b, costs=COSTS, trace=True)
    distance, ops = reference_trace(a, b, COSTS)
    assert result.distance.hex() == distance.hex()
    assert result.ops_trace == ops


def test_stats_count_cells():
    stats = DpStats()
    pair_scan(ps("abc"), ps("de"), math.inf, stats)
    assert stats.dps == 1
    assert stats.cells == 6  # 3 rows of 2: rows over the candidate, columns over the query


def test_pruning_abandons_hopeless_pair():
    stats = DpStats()
    result = pair_scan(ps("kkkkkk"), ps("a"), 0.01, stats)
    assert result is None
    assert stats.prefiltered == 1  # the length gap alone exceeds the bound
    assert stats.cells < 6  # stopped before finishing all rows


def test_row_test_abandons_hopeless_pair():
    stats = DpStats()
    result = pair_scan(ps("kkk"), ps("aaa"), 0.01, stats)
    assert result is None
    assert (stats.dps, stats.abandoned, stats.prefiltered, stats.cells) == (1, 1, 0, 1)


def test_length_gap_prefilter_prices_no_pair():
    # the bucket of "pa" against the query "pabababa", its cost rows
    # tripwires: the kernel rules it out on the length gap before it reads one
    class Unpriced:
        def __getitem__(self, label):
            raise AssertionError(f"priced label {label}")

    stats = DpStats()
    bucket = Bucket(2, [((0, 1), "")], [Unpriced(), Unpriced()])
    assert dp_labels(bucket, tuple(range(8)), 0.1, "~", True, stats) is None
    assert (stats.prefiltered, stats.dps, stats.abandoned, stats.cells) == (1, 0, 0, 0)


def test_a_bucket_out_of_reach_is_booked_in_prefiltered():
    # two words of 2 labels against an empty query: the gap alone gives
    # 2 / 2 = 1.0, above a best of 0.9 or of an exact match, so no DP starts
    stats = DpStats()
    assert pair_scan(ps("pa"), (), 0.9, stats) is None
    assert (stats.prefiltered, stats.dps, stats.abandoned, stats.cells) == (1, 0, 0, 0)
    # nearest finds the empty word first; without prune every bucket is scanned
    rows = [[0.0], [0.0]]
    order = [Bucket(0, [((), "")], rows), Bucket(2, [((0, 0), "00"), ((0, 1), "01")], rows)]
    for prune, counts in ((True, (2, 1, 0, 0)), (False, (0, 3, 0, 0))):
        stats = DpStats()
        hit = nearest(order, (), prune, stats)
        assert hit == (0.0, order[0], 0)
        assert (stats.prefiltered, stats.dps, stats.abandoned, stats.cells) == counts


def reach_bests(m, n):
    """Bests at which the reach of an m x n DP may turn: each quotient
    gap / maxlen and its neighbours, and values around 0 and beyond 1."""
    maxlen = max(m, n)
    quotients = [g / maxlen for g in range(maxlen + 1)] if maxlen else []
    near = [math.nextafter(q, d) for q in quotients for d in (-math.inf, math.inf)]
    return quotients + near + [-math.inf, -1.0, -5e-324, -0.0, 0.0, 5e-324, 2.0, math.inf]


def test_out_of_reach_is_the_band_test():
    # the kernel's reach rule, |m - n| > threshold(best, maxlen), against
    # ``band``'s emptiness and the division fl(|m - n| / maxlen) > best, for
    # every m, n up to 40 and every best around which the answer may change
    for m in range(41):
        for n in range(41):
            maxlen = max(m, n)
            for best in reach_bests(m, n):
                limit = threshold(best, maxlen)
                ruled_out = abs(m - n) > limit
                assert ruled_out == (band(limit, m, n) is None), (m, n, best)
                assert ruled_out == (maxlen > 0 and abs(m - n) / maxlen > best), (m, n, best)


# ---------------------------------------------------------------- kernel plan


@given(st.floats(-0.5, 1.5), st.integers(1, 40), st.lists(st.floats(-100, 100), max_size=5))
@settings(max_examples=300)
def test_threshold_is_the_row_test(bound, maxlen, extra):
    limit = threshold(bound, maxlen)
    near = [limit, math.nextafter(limit, -math.inf), math.nextafter(limit, math.inf)]
    for r in near + extra:
        assert (r > limit) == (r / maxlen > bound)


def test_threshold_of_an_infinite_bound_is_inf():
    assert threshold(math.inf, 7) == math.inf


@given(st.floats(-0.5, 1.5), st.integers(1, 40))
@settings(max_examples=300)
def test_floor_of_threshold_is_the_band_limit(bound, maxlen):
    # band() reads floor(threshold) as the largest integer t with t / maxlen <= bound
    largest = max(t for t in range(-maxlen - 1, 2 * maxlen + 1) if t / maxlen <= bound)
    assert math.floor(threshold(bound, maxlen)) == largest


def unit_chain(r, g):
    """r + 1.0 + ... + 1.0, g times, rounded after each step as the DP does."""
    for _ in range(g):
        r += 1.0
    return r


def float_at(bits):
    return struct.unpack("<d", struct.pack("<q", bits))[0]


def largest_within(limit, g):
    """The largest float r >= 0 with unit_chain(r, g) <= limit, or None.

    Non-negative floats order like their bit patterns, and the chain is
    monotone in r, so a binary search over the patterns finds it."""
    lo, hi = 0, struct.unpack("<q", struct.pack("<d", math.inf))[0]
    if unit_chain(0.0, g) > limit:
        return None
    if unit_chain(math.inf, g) <= limit:
        return math.inf
    while hi - lo > 1:  # unit_chain(float_at(lo)) <= limit < unit_chain(float_at(hi))
        mid = (lo + hi) // 2
        if unit_chain(float_at(mid), g) <= limit:
            lo = mid
        else:
            hi = mid
    return float_at(lo)


integral = st.integers(0, 2**60).map(float)
limits = st.one_of(
    integral,
    integral.map(lambda x: math.nextafter(x, math.inf)),  # an integer + 1 ulp
    integral.map(lambda x: math.nextafter(x, -math.inf)),
    st.floats(0, 10),
    st.floats(0, 1e-300),
    st.floats(1e15, 1e308),
    st.just(math.inf),
)


@given(limits)
@example(2.0**52)
@example(2.0**53)
@example(math.nextafter(8.0, -math.inf))
@settings(max_examples=300)
def test_gap_limits_bound_every_value_the_limit_admits(limit):
    # r > T[g] must prove that r plus g unit steps ends above the limit
    thresholds = gap_limits(limit, 9)
    assert thresholds[0] == limit
    for g, threshold_g in enumerate(thresholds):
        largest = largest_within(limit, g)
        if largest is not None:
            assert threshold_g >= largest, (limit, g)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_start_bound_is_at_least_the_unpruned_distance(data):
    # the diagonal chain against the DP value, in plain float order: costs
    # of 0 between distinct labels and of 1.5, and words of unequal or zero
    # length included
    m, n = data.draw(st.integers(0, 8)), data.draw(st.integers(0, 8))
    alphabet, ids = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    cost = st.one_of(st.sampled_from([0.0, 0.25, 1 / 3, 1.0, 1.5]), st.floats(0.0, 1.5))
    rows = [data.draw(st.lists(cost, min_size=ids, max_size=ids)) for _ in range(alphabet)]
    word = tuple(data.draw(st.lists(st.integers(0, alphabet - 1), min_size=m, max_size=m)))
    query = tuple(data.draw(st.lists(st.integers(0, ids - 1), min_size=n, max_size=n)))
    bucket = Bucket(m, [(word, "w")], rows)
    # an emptied bucket first in the visit order is passed over
    bound, start, k = start_bound([Bucket(n, [], rows), bucket], query)
    assert (start, k) == (bucket, 0)
    hit = dp_labels(bucket, query, math.inf, None, False, DpStats())
    assert bound >= hit[1]


def test_infinite_limit_bands_every_cell():
    for m in range(8):
        for n in range(8):
            lo, hi = band(math.inf, m, n)
            assert lo <= -n and hi >= m  # every diagonal i - j of the m x n grid
            spans = row_spans(m, n, lo, hi)
            for i in range(1, m + 1):
                assert list(spans[i][1]) == list(range(1, n + 1))


def test_band_is_the_diagonals_of_paths_within_the_limit():
    # every cell on diagonal d of an m x n DP owes |d| + |(m - n) - d| unit
    # steps to a path through it; t past m + n reaches no further diagonal
    for m in range(13):
        for n in range(13):
            for t in range(-1, m + n + 3):
                ds = [d for d in range(-n, m + 1) if abs(d) + abs(m - n - d) <= t]
                assert band(t, m, n) == ((ds[0], ds[-1]) if ds else None), (t, m, n)


def test_least_limit_is_the_least_limit_of_its_band():
    # a scan keeps its plan at a win exactly when the new limit's floor is
    # at least the plan's least_limit, so it must be the band's own least t
    for m in range(13):
        for n in range(13):
            for t in range(m + n + 2):
                diagonals = band(t, m, n)
                if diagonals is None:
                    continue
                least = least_limit(m, n, *diagonals)
                assert least <= t
                assert band(least, m, n) == diagonals
                assert band(least - 1, m, n) != diagonals


@given(st.one_of(st.floats(-0.5, 1.5), st.just(math.inf)), st.integers(0, 12),
       st.integers(0, 12))
@settings(max_examples=300)
def test_row_spans_cover_the_band(bound, m, n):
    diagonals = band(threshold(bound, max(m, n)), m, n)
    assume(diagonals is not None)
    lo, hi = diagonals
    spans = row_spans(m, n, lo, hi)
    assert len(spans) == m + 1
    for i in range(1, m + 1):
        jlo, cols, left, width, offset = spans[i]
        expected = [j for j in range(1, n + 1) if lo <= i - j <= hi]
        assert list(cols) == expected and width == len(expected)
        assert jlo == (expected[0] if expected else 1)
        assert left == (float(i) if i <= hi else math.inf)
        # every cell of the band, column 0 too, finds the threshold of its gap
        top = max_gap(m, n, lo, hi)
        for j in range(n + 1):
            if lo <= i - j <= hi:
                assert 0 <= offset + j <= 2 * top
                assert abs(offset + j - top) == abs((m - i) - (n - j))


# ---------------------------------------------------------------- kernel tiers


def widest_row(plan):
    """The number of cells in the widest row of ``plan`` (0 without rows)."""
    return max((span[3] for span in row_spans(*plan)[1:]), default=0)


@contextmanager
def tiers(narrow=None):
    """Run with an empty cache and, if given, width cap (-1 runs every plan
    interpreted, inf compiles every plan); yields the cache of compiled
    scans."""
    names = ("_NARROW", "_compiled")
    saved = [getattr(kernel, name) for name in names]
    kernel._compiled = {}
    if narrow is not None:
        kernel._NARROW = narrow
    try:
        yield kernel._compiled
    finally:
        for name, value in zip(names, saved):
            setattr(kernel, name, value)


@contextmanager
def scan_log():
    """Record the result of every scan either tier runs."""
    log = []
    interpret, generate = kernel._interpret, kernel._generate

    def record(result):
        log.append(result)
        return result

    def interpreted(*args):
        return record(interpret(*args))

    def generated(*plan):
        scan = generate(*plan)
        return lambda *args: record(scan(*args))

    kernel._interpret, kernel._generate = interpreted, generated
    try:
        yield log
    finally:
        kernel._interpret, kernel._generate = interpret, generate


def scan_twice(bucket, query, best, best_ipa, prune, dead=None):
    """Two identical dp_labels calls; per call, the hit and the four DpStats
    counters. With ``dead`` set, the band's cells of rows 1..m hold ``dead``
    before each interpreted scan, so a candidate that read a row it had not
    written would change a hit or a counter. No scan may write row 0."""
    interpret = kernel._interpret

    def scan(plan, stack, *args):
        if dead is not None:
            for row, span in zip(stack[1:], row_spans(*plan)[1:]):
                for j in span[1]:
                    row[j] = dead
        row0 = list(stack[0])
        result = interpret(plan, stack, *args)
        assert stack[0] == row0
        return result

    runs = []
    kernel._interpret = scan
    try:
        for _ in range(2):
            stats = DpStats()
            hit = dp_labels(bucket, query, best, best_ipa, prune, stats)
            runs.append((hit, (stats.cells, stats.dps, stats.abandoned, stats.prefiltered)))
    finally:
        kernel._interpret = interpret
    return runs


@st.composite
def scan_cases(draw):
    m, n = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    alphabet = draw(st.integers(1, 3))  # few labels: shared prefixes and ties
    words = draw(st.lists(st.tuples(*[st.integers(0, alphabet - 1)] * m),
                          min_size=1, max_size=12, unique=True))
    entries = [(word, "".join(map(str, word)) + draw(st.sampled_from(["", "x"])))
               for word in words]
    cost = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5])
    ids = draw(st.integers(1, 3))  # query label ids, repeats included
    rows = [draw(st.lists(cost, min_size=ids, max_size=ids)) for _ in range(alphabet)]
    query = tuple(draw(st.lists(st.integers(0, ids - 1), min_size=n, max_size=n)))
    # in reach: the kernel takes no bucket whose length gap exceeds best
    reach = abs(m - n) / max(m, n, 1)
    best = draw(st.one_of(st.just(math.inf), st.floats(reach, 1.2)))
    best_ipa = None if best == math.inf else draw(st.sampled_from(["", "1", "2x"]))
    return entries, m, rows, query, best, best_ipa, draw(st.booleans())


@given(scan_cases(), st.sampled_from([None, math.inf]))
@example(([((), "")], 0, [[0.5, 1.0, 0.5]], (0, 1, 2), math.inf, None, True), math.inf)
# rows that only the gap term abandons: row 5 of 7 against 6 query labels
# (row 6 without the gap), and the second candidate of a 3 x 4 bucket at
# its last row (completed without the gap); a tier that dropped the gap
# would compute other cells or leave other rows
@example(([((0,) * 7, "0000000")], 7, [[0.0, 1.0]], (0, 0, 0, 0, 1, 0), 0.25, "", True),
         None)
@example(([((0, 0, 0), "000"), ((0, 0, 1), "001")], 3, [[0.0, 0.0], [0.0, 0.25]],
          (0, 0, 1, 1), math.inf, None, True), None)
# two wins that keep the band -1..0, then a loser that the retuned t1
# abandons at row 1 (with t1 of the start bound it would complete)
@example(([((0,), "0x"), ((1,), "1"), ((2,), "2")], 1, [[0.5, 1.0, 0.5], [0.0, 1.0, 0.0],
          [1.0, 0.5, 0.25]], (2, 0), 1.15, "2x", True), None)
# the first word wins on the full band and narrows it; in the second, row 1's
# column right of the new band still holds the first word's full-band value,
# which row 2 must read as inf, and the second wins
@example(([((0, 0, 0, 1, 1), "00011"), ((0, 1, 1, 0, 0), "01100")], 5, [[0.0, 1.5], [1.5, 1.0]],
          (1, 1, 1, 0), math.inf, None, True), None)
# the bucket's last word wins on the band the first win left: the scan
# reaches the bucket's end at a win
@example(([((0,), "0"), ((1,), "1x")], 1, [[0.5, 0.0, 0.5], [1.5, 0.25, 0.25]], (0, 0, 0, 2),
          math.inf, None, True), math.inf)
# without prune every word wins and the scan goes on; nothing is abandoned
@example(([((0,), "0x"), ((1,), "1"), ((2,), "2")], 1, [[1.0, 1.0], [0.25, 0.25], [0.0, 0.0]],
          (1,), math.inf, None, False), math.inf)
@settings(max_examples=300, deadline=None)
def test_generated_scans_match_the_interpreted_scan(case, narrow):
    # per call the hit and the counters, and per scan its result
    entries, m, rows, query, best, best_ipa, prune = case
    results = []
    for tier in (-1, narrow):
        with tiers(tier) as compiled, scan_log() as log:
            calls = scan_twice(Bucket(m, list(entries), rows), query, best, best_ipa, prune)
            results.append((calls, log))
            if tier == math.inf and calls[0][1][1]:
                assert compiled  # the first call compiled every plan it ran
    assert results[0] == results[1]
    if not prune:  # no bound: every word completes its m x n cells, none is prefiltered
        assert all(counts[2:] == (0, 0) for _, counts in results[0][0])
        assert all(counts[0] == len(entries) * m * len(query) for _, counts in results[0][0])


def test_ped_is_exact_whichever_plans_are_compiled():
    # ped reads its rows off the stack: its distance, and with trace=True
    # its edit script. It runs the interpreted scan, so compiled scans of
    # every plan of the pair, as dp_labels calls may leave, change nothing;
    # the kernel's pruned search on the pair runs them, and wins at ped's nd
    a, b = ps("fa:tər"), ps("pedær")
    m, n = len(a), len(b)
    exact = ped(a, b, costs=COSTS, trace=True)
    # every plan of the pair: t from the length gap, where the band opens, to m + n
    pair_plans = {(m, n, *band(t, m, n)) for t in range(abs(m - n), m + n + 1)}
    for compile_all in (False, True):
        with tiers(-1) as compiled:
            if compile_all:
                compiled.update((plan, kernel._generate(*plan)) for plan in pair_plans)
            for _ in range(2):
                assert ped(a, b, costs=COSTS, trace=True) == exact
                assert pair_scan(a, b, exact.normalized).hex() == exact.normalized.hex()


@given(scan_cases(), st.sampled_from([-1, None]))
# the first candidate is abandoned at row 1, and the second shares two
# labels with it: row 2 was never written, and the second computes its rows
# from row 0
@example(([((0, 0, 0), "000"), ((0, 0, 1), "001")], 3, [[1.0], [1.0]], (0, 0, 0), 0.1, "",
          True), -1)
@example(([((0, 0, 0), "000"), ((0, 0, 1), "001")], 3, [[1.0], [1.0]], (0, 0, 0), 0.1, "",
          True), None)
@settings(max_examples=200, deadline=None)
def test_no_scan_reads_a_dead_row(case, narrow):
    # -1.0 lowers any DP value that reads it, so a candidate that read a row
    # it had not written would change a hit or a counter
    entries, m, rows, query, best, best_ipa, prune = case
    results = []
    for dead in (None, -1.0):
        with tiers(narrow):
            results.append(scan_twice(Bucket(m, list(entries), rows), query, best, best_ipa,
                                      prune, dead))
    assert results[0] == results[1]


# every candidate beats the one before it against a 6-label query: the first
# wins on the full band, the second on band -3..3, the third on -1..1 and the
# last on 0..0, so each win ends a scan: three at a plan switch, the last at
# the bucket's end
SWITCH_ROWS = [[1.0], [0.5], [0.0]]
SWITCH_ENTRIES = [((0,) * 6, "a"), ((1,) * 6, "b"), ((2,) * 5 + (1,), "c"), ((2,) * 6, "d")]


def switch_scan():
    stats = DpStats()
    hit = dp_labels(Bucket(6, list(SWITCH_ENTRIES), SWITCH_ROWS), (0,) * 6, math.inf, None,
                    True, stats)
    return hit, (stats.cells, stats.dps, stats.abandoned)


def switch_widths():
    """``switch_scan``'s result, and the widest row of each plan the
    interpreted scan ran, in order."""
    widths, interpret = [], kernel._interpret

    def spy(plan, *args):
        widths.append(widest_row(plan))
        return interpret(plan, *args)

    kernel._interpret = spy
    try:
        return switch_scan(), widths
    finally:
        kernel._interpret = interpret


def test_a_win_switches_plan_and_tier_mid_bucket():
    # the first two plans are wider than the cap and interpreted, the last
    # two generated; the hit and the counters are those of the interpreted
    # scan alone
    with tiers(-1):
        reference = switch_scan()
    assert reference[0] == (3, 0.0)
    with tiers():
        assert switch_widths() == (reference, [6, 6])


def test_narrow_plans_compile_at_their_first_scan():
    # a narrow plan runs generated from its first scan on, so the
    # interpreted scan sees only the wide plans, which never compile
    with tiers() as compiled:
        for _ in range(2):
            hit, seen = switch_widths()
            assert hit[0] == (3, 0.0) and seen == [6, 6]
        assert sorted(compiled) == [(6, 6, -1, 1), (6, 6, 0, 0)]


def band_plans(size):
    """Every plan ``band`` gives for m, n <= size."""
    return {(m, n, *band(t, m, n)) for m in range(size + 1) for n in range(size + 1)
            for t in range(abs(m - n), m + n + 1)}


def test_a_plan_compiles_exactly_when_its_widest_row_fits_the_cap():
    for narrow in (-1, 0, kernel._NARROW):
        for plan in sorted(band_plans(12)):
            with tiers(narrow):
                compiled = kernel._compile(plan) is not None
                assert compiled == (widest_row(plan) <= narrow), (narrow, plan)


def test_a_new_narrow_plan_compiles_however_many_scans_are_kept():
    # the cache keeps no count: after 128 other narrow plans, the switch
    # scan's two narrow plans still compile at their first scan
    ours = {(6, 6, -1, 1), (6, 6, 0, 0)}
    others = [plan for plan in sorted(band_plans(12) - ours) if widest_row(plan) <= kernel._NARROW]
    with tiers() as compiled:
        for plan in others[:128]:
            assert kernel._compile(plan) is not None
        hit, seen = switch_widths()
        assert hit[0] == (3, 0.0) and seen == [6, 6]
        assert ours <= compiled.keys() and len(compiled) == 130


def test_generated_scans_write_nothing():
    # without the width cap the first call compiles all four plans; in the
    # second, every scan is generated and ends at a win: it makes no DP rows,
    # and the rows the first call's interpreted scans made keep what was put
    # there before it
    made, make = [], kernel.dp_stack

    def dp_stack(rows, cols):
        made.append(make(rows, cols))
        return made[-1]

    kernel.dp_stack = dp_stack
    try:
        with tiers(math.inf) as compiled:
            reference = switch_scan()
            assert reference[0] == (3, 0.0)
            assert sorted(compiled) == [(6, 6, -6, 6), (6, 6, -3, 3), (6, 6, -1, 1),
                                        (6, 6, 0, 0)]
            for scan in compiled.values():
                code = scan.__code__
                assert "stack" not in code.co_varnames + code.co_names
            for stack in made:
                for row in stack[1:]:
                    row[1:] = [-1.0] * 6
            before = [[list(row) for row in stack] for stack in made]
            assert switch_scan() == reference
    finally:
        kernel.dp_stack = make
    assert made == before


def test_long_words_compile_only_narrow_plans():
    rng = random.Random(40)
    phones = "ptkbdgmnszaeiou"  # one phone per character
    aa = {"".join(rng.choices(phones, k=rng.randint(20, 40))) for _ in range(24)}
    # bb: a near copy of half of aa (narrow bands), and unrelated words (wide)
    bb = {"".join(rng.choice(phones) if rng.random() < 0.05 else p for p in word)
          for word in sorted(aa)[::2]}
    bb |= {"".join(rng.choices(phones, k=rng.randint(20, 40))) for _ in range(12)}
    lists = [WordList(lang, "NOUN", tuple(words), {w: w for w in words})
             for lang, words in (("aa", aa), ("bb", bb))]
    exact = align_lists(*lists, INV, costs=COSTS, prune=False).mu_psi
    with tiers() as compiled:
        mu_psi = align_lists(*lists, INV, costs=COSTS).mu_psi
        assert compiled and all(widest_row(plan) <= kernel._NARROW for plan in compiled)
    assert mu_psi.hex() == exact.hex()


# ---------------------------------------------------------------- trace


def test_trace_reconstructs_distance():
    result = ped(ps("fa:tər"), ps("pedær"), costs=COSTS, trace=True)
    assert result.ops_trace is not None
    total = 0.0
    for op in result.ops_trace:
        total += op.cost
    assert total == pytest.approx(result.distance, abs=1e-12)
    kinds = [op.op for op in result.ops_trace]
    assert kinds == ["substitute", "substitute", "substitute", "substitute", "match"]


def test_trace_insertion_script():
    result = ped(ps("pɛn"), ps("bɛnd"), costs=COSTS, trace=True)
    assert [op.op for op in result.ops_trace] == ["substitute", "match", "match", "insert"]
    assert result.ops_trace[-1].target == "d"


def test_trace_deletion_script():
    result = ped(ps("bɛnd"), ps("pɛn"), costs=COSTS, trace=True)
    assert [op.op for op in result.ops_trace] == ["substitute", "match", "match", "delete"]
