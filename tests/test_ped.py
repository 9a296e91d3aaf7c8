import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from pedlex import (
    DistanceConfig,
    DpStats,
    EditOp,
    SubstitutionCosts,
    default_inventory,
    default_manner_table,
    paper_voice,
    ped,
    phonetic_difference,
    tokenize,
)
from pedlex.ped import band, row_spans, threshold

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


@given(phone_words(), phone_words())
@settings(max_examples=60)
def test_pruned_equals_unpruned(a, b):
    exact = ped(a, b, costs=COSTS)
    # a bound at the true value must not abandon, and must agree bit for bit
    at_bound = ped(a, b, costs=COSTS, bound=exact.normalized)
    assert at_bound is not None
    assert at_bound.distance == exact.distance
    # a bound below the true value may abandon, never mis-report
    below = ped(a, b, costs=COSTS, bound=exact.normalized - 1e-9)
    if below is not None:
        assert below.distance == exact.distance


@given(phone_words(), phone_words(), st.data())
@settings(max_examples=200)
def test_random_bound_exact_or_none(a, b, data):
    exact = ped(a, b, costs=COSTS)
    near = [exact.normalized, math.nextafter(exact.normalized, -math.inf),
            math.nextafter(exact.normalized, math.inf)]
    bound = data.draw(st.one_of(st.sampled_from(near + [-math.inf]), st.floats(-0.5, 1.5)))
    result = ped(a, b, costs=COSTS, bound=bound)
    if result is None:
        assert exact.normalized > bound
    else:
        assert exact.normalized <= bound
        assert result.distance.hex() == exact.distance.hex()
        assert result.normalized.hex() == exact.normalized.hex()


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
    result = ped(a, b, costs=COSTS, trace=True, bound=0.0)
    distance, ops = reference_trace(a, b, COSTS)
    assert result.distance.hex() == distance.hex()
    assert result.ops_trace == ops


def test_stats_count_cells():
    stats = DpStats()
    ped(ps("abc"), ps("de"), costs=COSTS, stats=stats)
    assert stats.dps == 1
    assert stats.cells == 6  # 3 rows of 2 after orientation swap


def test_pruning_abandons_hopeless_pair():
    stats = DpStats()
    result = ped(ps("kkkkkk"), ps("a"), costs=COSTS, bound=0.01, stats=stats)
    assert result is None
    assert stats.prefiltered == 1  # the length gap alone exceeds the bound
    assert stats.cells < 6  # stopped before finishing all rows


def test_row_test_abandons_hopeless_pair():
    stats = DpStats()
    result = ped(ps("kkk"), ps("aaa"), costs=COSTS, bound=0.01, stats=stats)
    assert result is None
    assert (stats.dps, stats.abandoned, stats.prefiltered, stats.cells) == (1, 1, 0, 1)


def test_length_gap_prefilter_prices_no_pair():
    priced = []

    class CountingCosts(SubstitutionCosts):
        def pair(self, a, b):
            priced.append((a.label, b.label))
            return super().pair(a, b)

    stats = DpStats()
    result = ped(ps("pa"), ps("pabababa"), costs=CountingCosts(CFG, XI), bound=0.1, stats=stats)
    assert result is None
    assert priced == []
    assert (stats.prefiltered, stats.dps, stats.abandoned, stats.cells) == (1, 0, 0, 0)


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


def test_infinite_limit_bands_every_cell():
    for m in range(8):
        for n in range(8):
            lo, hi = band(math.inf, m, n)
            assert lo <= -n and hi >= m  # every diagonal i - j of the m x n grid
            spans = row_spans(m, n, lo, hi)
            for i in range(1, m + 1):
                assert list(spans[i][1]) == list(range(1, n + 1))


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
        jlo, cols, sentinel, left, width = spans[i]
        expected = [j for j in range(1, n + 1) if lo <= i - j <= hi]
        assert list(cols) == expected and width == len(expected)
        assert jlo == (expected[0] if expected else 1)
        assert left == (float(i) if i <= hi else math.inf)
        assert sentinel == (i - lo + 1 if i - lo < n else 0)


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
