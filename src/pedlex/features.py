"""Articulatory feature model and the IPA-symbol inventory.

Vowels carry two graded features (open, back) plus binary rounding; the
grades correspond to the rows/columns of the standard vowel chart. Consonants
carry a graded place-of-articulation coordinate (bilabial 0.05 ... glottal
0.95), a manner label, and binary voiced/aspirated/pharyngeal plus a ternary
airflow value. The inventory maps each IPA symbol to its feature bundle and
is loaded from a tab-separated data file so new symbols can be added without
code changes.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

from .errors import InventoryError, UnknownSymbolError, open_lines
from .longest_match import LongestMatch

MANNERS = (
    "plosive",
    "nasal",
    "trill",
    "tap-flap",
    "fricative",
    "lateral-fricative",
    "approximant",
    "lateral-approximant",
)

# Height and backness grades used by the vowel chart.
VOWEL_OPEN_GRID = (0.0, 0.17, 0.33, 0.5, 0.67, 0.83, 1.0)
VOWEL_BACK_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)

AIRFLOW_VALUES = (0.0, 0.5, 1.0)  # pulmonic, implosive, ejective

VOWEL = "vowel"
CONSONANT = "consonant"


@dataclass(frozen=True)
class VowelFeatures:
    open: float
    back: float
    rounded: int


@dataclass(frozen=True)
class ConsonantFeatures:
    manner: str
    place: float
    voiced: int
    aspirated: int
    airflow: float
    pharyngeal: int


@dataclass(frozen=True)
class Phone:
    """One IPA sound: label, vowel/consonant type, and its feature bundle."""

    label: str
    type: str
    features: VowelFeatures | ConsonantFeatures

    @property
    def is_vowel(self) -> bool:
        return self.type == VOWEL


@dataclass(frozen=True)
class FeatureInventory:
    """Immutable label -> Phone mapping; safe to share across workers."""

    entries: dict[str, Phone]

    @cached_property
    def scanner(self) -> LongestMatch[Phone]:
        """Greedy longest-match scanner over the labels; built on first use."""
        return LongestMatch(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, label: str) -> bool:
        return label in self.entries

    def __getitem__(self, label: str) -> Phone:
        try:
            return self.entries[label]
        except KeyError:
            raise UnknownSymbolError(f"symbol {label!r} not in inventory") from None

    def get(self, label: str) -> Phone | None:
        return self.entries.get(label)

    def labels(self) -> tuple[str, ...]:
        return tuple(sorted(self.entries))


def normalize_ipa(text: str) -> str:
    """Canonical form of IPA text: NFC, with the length mark 'ː' as ':'.

    Inventory labels and the words tokenized against them both pass through
    here, so either spelling of a long sound finds the same entry.
    """
    return unicodedata.normalize("NFC", text).replace("ː", ":")


# The published per-symbol voice values, which mark 's' voiced and 'ʃ'
# voiceless (their -1 read as voiced here).
PAPER_VOICE = {"s": 1, "ʃ": 0, "l": 1, "m": 1}


def paper_voice(inventory: FeatureInventory) -> FeatureInventory:
    """A copy of ``inventory`` whose consonants carry the PAPER_VOICE values.

    Together with ``DistanceConfig(literal_vowel_branch=True)`` this is the
    CLI's ``--paper-mode``. Labels the inventory lacks, and vowels, are left
    as they are.
    """
    entries = dict(inventory.entries)
    for label, voiced in PAPER_VOICE.items():
        phone = entries.get(label)
        if phone is None or phone.is_vowel:
            continue
        entries[label] = replace(phone, features=replace(phone.features, voiced=voiced))
    return FeatureInventory(entries=entries)


def _parse_binary(text: str, name: str, where: str) -> int:
    if text not in ("0", "1"):
        raise InventoryError(f"{where}: {name} must be 0 or 1, got {text!r}")
    return int(text)


def _parse_float(text: str, name: str, where: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise InventoryError(f"{where}: {name} is not a number: {text!r}") from None


def _parse_vowel(fields: list[str], where: str) -> VowelFeatures:
    if len(fields) != 5:
        raise InventoryError(
            f"{where}: vowel rows need 5 fields (label v open back rounded), "
            f"got {len(fields)}"
        )
    open_ = _parse_float(fields[2], "open", where)
    back = _parse_float(fields[3], "back", where)
    if open_ not in VOWEL_OPEN_GRID:
        raise InventoryError(f"{where}: open={open_} not on the height grid {VOWEL_OPEN_GRID}")
    if back not in VOWEL_BACK_GRID:
        raise InventoryError(f"{where}: back={back} not on the backness grid {VOWEL_BACK_GRID}")
    rounded = _parse_binary(fields[4], "rounded", where)
    return VowelFeatures(open=open_, back=back, rounded=rounded)


def _parse_consonant(fields: list[str], where: str) -> ConsonantFeatures:
    if len(fields) != 8:
        raise InventoryError(
            f"{where}: consonant rows need 8 fields "
            f"(label c manner place voiced aspirated airflow pharyngeal), "
            f"got {len(fields)}"
        )
    manner = fields[2]
    if manner not in MANNERS:
        raise InventoryError(f"{where}: unknown manner {manner!r}")
    place = _parse_float(fields[3], "place", where)
    if not 0.0 < place < 1.0:
        raise InventoryError(f"{where}: place={place} outside (0, 1)")
    voiced = _parse_binary(fields[4], "voiced", where)
    aspirated = _parse_binary(fields[5], "aspirated", where)
    airflow = _parse_float(fields[6], "airflow", where)
    if airflow not in AIRFLOW_VALUES:
        raise InventoryError(f"{where}: airflow={airflow} not in {AIRFLOW_VALUES}")
    pharyngeal = _parse_binary(fields[7], "pharyngeal", where)
    return ConsonantFeatures(
        manner=manner,
        place=place,
        voiced=voiced,
        aspirated=aspirated,
        airflow=airflow,
        pharyngeal=pharyngeal,
    )


def load_inventory(path: str | Path) -> FeatureInventory:
    """Load a feature inventory from a tab-separated file.

    Vowel rows: ``label  v  open  back  rounded``.
    Consonant rows: ``label  c  manner  place  voiced  aspirated  airflow
    pharyngeal``. Lines starting with '#' and blank lines are skipped.
    Labels are normalized (NFC, length mark -> ':') and must be unique.
    """
    path = Path(path)
    entries: dict[str, Phone] = {}
    with open_lines(path, InventoryError, "inventory file") as lines:
        for lineno, line in lines:
            line = line.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            where = f"{path} line {lineno}"
            fields = line.split("\t")
            if len(fields) < 2:
                raise InventoryError(f"{where}: expected tab-separated fields, got {line!r}")
            label = normalize_ipa(fields[0])
            if not label:
                raise InventoryError(f"{where}: empty label")
            if any(c.isspace() for c in label):
                # tokenize rejects whitespace in words, and relies on labels having none
                raise InventoryError(f"{where}: whitespace in label {label!r}")
            kind = fields[1]
            if kind == "v":
                phone = Phone(label, VOWEL, _parse_vowel(fields, where))
            elif kind == "c":
                phone = Phone(label, CONSONANT, _parse_consonant(fields, where))
            else:
                raise InventoryError(f"{where}: type must be 'v' or 'c', got {kind!r}")
            if label in entries:
                raise InventoryError(f"{where}: duplicate label {label!r}")
            entries[label] = phone
    if not entries:
        raise InventoryError(f"inventory {path} is empty")
    return FeatureInventory(entries=entries)


def _format_number(value: float) -> str:
    # repr round-trips exactly; integral values print without the fraction
    if value == int(value):
        return str(int(value))
    return repr(value)


def save_inventory(inv: FeatureInventory, path: str | Path) -> None:
    """Write an inventory back to the tab-separated file format."""
    lines = ["# label\ttype\tfeatures (v: open back rounded; "
             "c: manner place voiced aspirated airflow pharyngeal)"]
    for label in sorted(inv.entries):
        phone = inv.entries[label]
        f = phone.features
        if phone.is_vowel:
            lines.append(
                "\t".join(
                    [label, "v", _format_number(f.open), _format_number(f.back),
                     str(f.rounded)]
                )
            )
        else:
            lines.append(
                "\t".join(
                    [label, "c", f.manner, _format_number(f.place), str(f.voiced),
                     str(f.aspirated), _format_number(f.airflow), str(f.pharyngeal)]
                )
            )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
