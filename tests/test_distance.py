import itertools
import random
import re

import pytest
from hypothesis import given, strategies as st

from pedlex import (
    DistanceConfig,
    SubstitutionCosts,
    default_inventory,
    default_manner_table,
    load_manner_table,
    pdc,
    pdv,
    phonetic_difference,
)
from pedlex.distance import BETA, CONSONANT_PM_WEIGHT, VOICED_WEIGHT, MannerDistanceTable
from pedlex.errors import ConfigError, MannerTableError
from pedlex.features import MANNERS, ConsonantFeatures, VowelFeatures

INV = default_inventory()
VOWELS = [INV[l] for l in INV.labels() if INV[l].is_vowel]
CONSONANTS = [INV[l] for l in INV.labels() if not INV[l].is_vowel]


def vf(label):
    return INV[label].features


# ---------------------------------------------------------------- vowels


def test_vowel_golden_open_back_rounded(cfg):
    assert pdv(vf("ɒ"), vf("a:"), cfg) == pytest.approx(0.667, abs=0.002)


def test_vowel_golden_long_a_to_e(cfg):
    assert pdv(vf("a:"), vf("e"), cfg) == pytest.approx(0.223, abs=0.002)


def test_vowel_golden_schwa_to_ash(cfg):
    assert pdv(vf("ə"), vf("æ"), cfg) == pytest.approx(0.277, abs=0.002)


def test_vowel_identity(cfg):
    for phone in VOWELS:
        assert pdv(phone.features, phone.features, cfg) == 0.0


def test_vowel_close_front_vs_close_back(cfg):
    # (0 + 1 + 1) / 3 by hand from the chart values
    assert pdv(vf("i"), vf("u"), cfg) == pytest.approx(2 / 3, abs=1e-9)


def test_literal_branch_agrees_on_distant_pairs(cfg):
    literal = DistanceConfig(literal_vowel_branch=True)
    for a, b in [("ɒ", "a:"), ("a:", "e"), ("ə", "æ")]:
        assert pdv(vf(a), vf(b), literal) == pytest.approx(pdv(vf(a), vf(b), cfg), abs=1e-12)


def test_literal_branch_charges_near_pairs_flat():
    # the verbatim two-branch formula prices i/ɪ above ə/æ; kept only as an
    # opt-in comparison mode
    literal = DistanceConfig(literal_vowel_branch=True)
    near = pdv(vf("i"), vf("ɪ"), literal)
    assert near == pytest.approx((0.42 + 1) / 3, abs=1e-9)
    assert near > pdv(vf("ə"), vf("æ"), literal)


@given(st.data())
def test_vowel_triangle_inequality(data):
    cfg = DistanceConfig()
    a = data.draw(st.sampled_from(VOWELS))
    b = data.draw(st.sampled_from(VOWELS))
    c = data.draw(st.sampled_from(VOWELS))
    assert pdv(a.features, c.features, cfg) <= (
        pdv(a.features, b.features, cfg) + pdv(b.features, c.features, cfg) + 1e-9
    )


# ---------------------------------------------------------------- consonants


def test_consonant_golden_f_to_p(cfg, xi):
    assert pdc(vf("f"), vf("p"), cfg, xi) == pytest.approx(0.100, abs=0.002)


def test_consonant_golden_p_to_b(cfg, xi):
    assert pdc(vf("p"), vf("b"), cfg, xi) == pytest.approx(0.200, abs=0.002)


def test_consonant_t_to_d_with_documented_deviation(cfg, xi):
    value = pdc(vf("t"), vf("d"), cfg, xi)
    assert value == pytest.approx(0.200, abs=0.002)
    assert abs(value - 0.217) <= 0.05  # published value; same-place voicing-only here


def test_consonant_sh_to_s_with_documented_deviation(cfg, xi):
    value = pdc(vf("ʃ"), vf("s"), cfg, xi)
    assert value == pytest.approx(0.1333, abs=0.002)
    assert abs(value - 0.267) <= 0.15  # published value; place-gap-only here


def test_consonant_p_to_z_with_documented_deviation(cfg, xi):
    value = pdc(vf("p"), vf("z"), cfg, xi)
    assert value == pytest.approx(0.400, abs=0.002)
    assert abs(value - 0.35) <= 0.15


def test_consonant_identity(cfg, xi):
    for phone in CONSONANTS:
        assert pdc(phone.features, phone.features, cfg, xi) == 0.0


def test_above_threshold_skips_secondary_features(cfg, xi):
    # k vs b: same manner, place gap 0.7 > alpha, so voicing is not added
    assert pdc(vf("k"), vf("b"), cfg, xi) == pytest.approx(0.7, abs=1e-9)


def test_result_clamped_to_one(cfg, xi):
    # trill/lateral-approximant manners plus a big place gap exceed 1 raw
    big = ConsonantFeatures("trill", 0.05, 1, 0, 0.0, 0)
    far = ConsonantFeatures("lateral-approximant", 0.95, 1, 0, 0.0, 0)
    assert pdc(big, far, cfg, xi) == 1.0


def test_place_monotonicity_below_threshold(cfg, xi):
    places = [0.05, 0.10, 0.15, 0.25, 0.45, 0.55]
    anchor = ConsonantFeatures("plosive", 0.05, 0, 0, 0.0, 0)
    last = -1.0
    for place in places:
        other = ConsonantFeatures("plosive", place, 0, 0, 0.0, 0)
        if abs(place - 0.05) > cfg.alpha:
            break
        value = pdc(anchor, other, cfg, xi)
        assert value >= last
        last = value


def test_aspiration_contributes_beta_share(cfg, xi):
    value = pdc(vf("t"), vf("tʰ"), cfg, xi)
    assert value == pytest.approx(BETA * (1 / 3), abs=1e-9)


# ---------------------------------------------------------------- dispatch


def test_cross_type_cost(cfg, xi):
    assert phonetic_difference(INV["p"], INV["a"], cfg, xi) == 1.0
    assert phonetic_difference(INV["a"], INV["p"], cfg, xi) == 1.0


def test_identical_labels_cost_zero(cfg, xi):
    assert phonetic_difference(INV["ʃ"], INV["ʃ"], cfg, xi) == 0.0


def test_golden_open_back_vowel_pair_via_dispatch(cfg, xi):
    assert phonetic_difference(INV["ɒ"], INV["a:"], cfg, xi) == pytest.approx(0.667, abs=0.002)


def test_full_inventory_range_symmetry_and_identity(cfg, xi):
    labels = INV.labels()
    for la, lb in itertools.product(labels, labels):
        d_ab = phonetic_difference(INV[la], INV[lb], cfg, xi)
        assert 0.0 <= d_ab <= 1.0, (la, lb)
        assert d_ab == phonetic_difference(INV[lb], INV[la], cfg, xi), (la, lb)
        if d_ab == 0.0 and INV[la].type == INV[lb].type:
            assert INV[la].features == INV[lb].features, (la, lb)


def test_zero_iff_same_bundle_sampled(cfg, xi):
    rng = random.Random(7)
    for _ in range(500):
        a, b = rng.choice(CONSONANTS), rng.choice(CONSONANTS)
        if a.features == b.features:
            assert phonetic_difference(a, b, cfg, xi) == 0.0
        else:
            assert phonetic_difference(a, b, cfg, xi) > 0.0


# ---------------------------------------------------------------- config and table


def test_config_defaults_satisfy_weight_sum():
    assert abs(CONSONANT_PM_WEIGHT + VOICED_WEIGHT + BETA - 1.0) <= 1e-12


def test_config_rejects_out_of_range_alpha():
    with pytest.raises(ConfigError):
        DistanceConfig(alpha=0.0)
    with pytest.raises(ConfigError):
        DistanceConfig(alpha=1.5)


def test_manner_table_symmetric_complete(xi):
    for m1 in MANNERS:
        assert xi.lookup(m1, m1) == 0.0
        for m2 in MANNERS:
            assert xi.lookup(m1, m2) == xi.lookup(m2, m1)
            assert 0.0 <= xi.lookup(m1, m2) <= 1.0


def test_manner_table_plosive_fricative_pinned(xi):
    assert xi.lookup("plosive", "fricative") == pytest.approx(0.1)


def test_manner_table_rejects_missing_pair():
    with pytest.raises(MannerTableError, match="missing"):
        MannerDistanceTable(entries={(m, m): 0.0 for m in MANNERS})


def test_manner_table_load_rejects_unknown_manner(tmp_path):
    path = tmp_path / "xi.tsv"
    path.write_text("plosive\tclick\t0.1\n", encoding="utf-8")
    with pytest.raises(MannerTableError, match=rf"^{re.escape(str(path))} line 1: unknown manner"):
        load_manner_table(path)


def test_manner_table_load_errors_name_the_file(tmp_path):
    path = tmp_path / "xi.tsv"
    path.write_text("# distances\nplosive\tnasal\t2.0\n", encoding="utf-8")
    where = re.escape(str(path))
    with pytest.raises(MannerTableError, match=rf"^{where} line 2: distance 2.0 for \(plosive"):
        load_manner_table(path)
    path.write_text("plosive\tnasal\t0.1\n", encoding="utf-8")
    with pytest.raises(MannerTableError, match=rf"^{where}: missing manner pair"):
        load_manner_table(path)


def test_manner_table_load_rejects_conflicting_duplicate(tmp_path):
    path = tmp_path / "xi.tsv"
    rows = ["plosive\tnasal\t0.1", "nasal\tplosive\t0.2"]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    with pytest.raises(MannerTableError, match="conflicting"):
        load_manner_table(path)


def test_substitution_costs_fill_in_defaults():
    costs = SubstitutionCosts()
    assert costs.cfg == DistanceConfig()
    assert costs.xi is default_manner_table()
    cfg = DistanceConfig(alpha=0.4)
    assert SubstitutionCosts(cfg).cfg is cfg
