import re

import pytest

from pedlex import load_inventory, save_inventory
from pedlex.errors import InventoryError, UnknownSymbolError
from pedlex.features import (
    MANNERS,
    VOWEL_BACK_GRID,
    VOWEL_OPEN_GRID,
    ConsonantFeatures,
    VowelFeatures,
)


def write_inventory(tmp_path, text):
    path = tmp_path / "inv.tsv"
    path.write_text(text, encoding="utf-8")
    return path


def test_default_inventory_size_and_coverage(inv):
    assert len(inv) >= 60
    # the five sounds of the worked examples plus both words' vowels
    for label in ["ʃ", "ə", "l", "ɒ", "m", "s", "a:", "f", "t", "d", "p", "b", "e", "æ", "r", "ɛ", "n", "z"]:
        assert label in inv, label


def test_close_front_unrounded_vowel(inv):
    phone = inv["i"]
    assert phone.is_vowel
    assert phone.features == VowelFeatures(open=0.0, back=0.0, rounded=0)


def test_close_back_rounded_vowel(inv):
    assert inv["u"].features == VowelFeatures(open=0.0, back=1.0, rounded=1)


def test_lookup_consonant_places(inv):
    sh = inv["ʃ"]
    assert sh.features.place == pytest.approx(0.45)
    assert sh.features.manner == "fricative"
    assert inv["s"].features.place == pytest.approx(0.25)


def test_lookup_unknown_symbol(inv):
    with pytest.raises(UnknownSymbolError):
        inv["☃"]
    assert inv.get("☃") is None


def test_long_vowels_share_short_bundle(inv):
    for base in ["a", "e", "i", "o", "u"]:
        assert inv[base + ":"].features == inv[base].features


def test_load_rejects_empty_file(tmp_path):
    path = write_inventory(tmp_path, "# only a comment\n")
    with pytest.raises(InventoryError, match="empty"):
        load_inventory(path)


def test_load_rejects_duplicate_label(tmp_path):
    path = write_inventory(tmp_path, "i\tv\t0\t0\t0\ni\tv\t0\t0\t1\n")
    with pytest.raises(InventoryError, match=rf"^{re.escape(str(path))} line 2: duplicate"):
        load_inventory(path)


def test_load_reports_line_number_on_malformed_row(tmp_path):
    path = write_inventory(tmp_path, "i\tv\t0\t0\t0\nq\tc\tplosive\n")
    with pytest.raises(InventoryError, match=rf"^{re.escape(str(path))} line 2: consonant rows"):
        load_inventory(path)


@pytest.mark.parametrize("label", ["a ", " a", "a\u00a0b"])
def test_load_rejects_whitespace_in_label(tmp_path, label):
    # tokenize rejects whitespace in a word, so such a label could never match
    path = write_inventory(tmp_path, f"i\tv\t0\t0\t0\n{label}\tv\t1\t0\t0\n")
    with pytest.raises(InventoryError, match=rf"^{re.escape(str(path))} line 2: whitespace"):
        load_inventory(path)


def test_load_rejects_out_of_range_place(tmp_path):
    path = write_inventory(tmp_path, "q\tc\tplosive\t1.5\t0\t0\t0\t0\n")
    with pytest.raises(InventoryError, match="place"):
        load_inventory(path)


def test_load_rejects_off_grid_vowel(tmp_path):
    path = write_inventory(tmp_path, "i\tv\t0.2\t0\t0\n")
    with pytest.raises(InventoryError, match="grid"):
        load_inventory(path)


def test_load_rejects_unknown_manner(tmp_path):
    path = write_inventory(tmp_path, "q\tc\tclick\t0.5\t0\t0\t0\t0\n")
    with pytest.raises(InventoryError, match=rf"^{re.escape(str(path))} line 1: unknown manner"):
        load_inventory(path)


def test_load_missing_file(tmp_path):
    with pytest.raises(InventoryError, match="not found"):
        load_inventory(tmp_path / "nope.tsv")


def test_bilabial_place_accepted(tmp_path):
    path = write_inventory(tmp_path, "m\tc\tplosive\t0.05\t0\t0\t0\t0\n")
    assert load_inventory(path)["m"].features.place == 0.05


def test_roundtrip_serialization(tmp_path, inv):
    out = tmp_path / "copy.tsv"
    save_inventory(inv, out)
    assert load_inventory(out) == inv


def test_every_vowel_on_grid(inv):
    for label in inv.labels():
        phone = inv[label]
        if phone.is_vowel:
            assert phone.features.open in VOWEL_OPEN_GRID, label
            assert phone.features.back in VOWEL_BACK_GRID, label
            assert phone.features.rounded in (0, 1), label


def test_every_consonant_well_formed(inv):
    for label in inv.labels():
        phone = inv[label]
        if not phone.is_vowel:
            f = phone.features
            assert isinstance(f, ConsonantFeatures)
            assert 0.0 < f.place < 1.0, label
            assert f.manner in MANNERS, label
            assert f.voiced in (0, 1) and f.aspirated in (0, 1) and f.pharyngeal in (0, 1)


def test_labels_are_normalized(tmp_path):
    # the IPA length mark folds to ':' at load
    path = write_inventory(tmp_path, "aː\tv\t1\t0\t0\n")
    loaded = load_inventory(path)
    assert "a:" in loaded and "aː" not in loaded
