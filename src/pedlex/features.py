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
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from .errors import InventoryError, UnknownSymbolError
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
    source: str = field(default="", compare=False)

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


def normalize_label(label: str) -> str:
    """Canonical form of an IPA label: NFC, with the length mark as ':'."""
    return unicodedata.normalize("NFC", label).replace("ː", ":")


def _parse_binary(text: str, name: str, lineno: int) -> int:
    if text not in ("0", "1"):
        raise InventoryError(f"line {lineno}: {name} must be 0 or 1, got {text!r}")
    return int(text)


def _parse_float(text: str, name: str, lineno: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise InventoryError(
            f"line {lineno}: {name} is not a number: {text!r}"
        ) from None


def _parse_vowel(fields: list[str], lineno: int) -> VowelFeatures:
    if len(fields) != 5:
        raise InventoryError(
            f"line {lineno}: vowel rows need 5 fields (label v open back rounded), "
            f"got {len(fields)}"
        )
    open_ = _parse_float(fields[2], "open", lineno)
    back = _parse_float(fields[3], "back", lineno)
    if open_ not in VOWEL_OPEN_GRID:
        raise InventoryError(
            f"line {lineno}: open={open_} not on the height grid {VOWEL_OPEN_GRID}"
        )
    if back not in VOWEL_BACK_GRID:
        raise InventoryError(
            f"line {lineno}: back={back} not on the backness grid {VOWEL_BACK_GRID}"
        )
    rounded = _parse_binary(fields[4], "rounded", lineno)
    return VowelFeatures(open=open_, back=back, rounded=rounded)


def _parse_consonant(fields: list[str], lineno: int) -> ConsonantFeatures:
    if len(fields) != 8:
        raise InventoryError(
            f"line {lineno}: consonant rows need 8 fields "
            f"(label c manner place voiced aspirated airflow pharyngeal), "
            f"got {len(fields)}"
        )
    manner = fields[2]
    if manner not in MANNERS:
        raise InventoryError(f"line {lineno}: unknown manner {manner!r}")
    place = _parse_float(fields[3], "place", lineno)
    if not 0.0 < place < 1.0:
        raise InventoryError(f"line {lineno}: place={place} outside (0, 1)")
    voiced = _parse_binary(fields[4], "voiced", lineno)
    aspirated = _parse_binary(fields[5], "aspirated", lineno)
    airflow = _parse_float(fields[6], "airflow", lineno)
    if airflow not in AIRFLOW_VALUES:
        raise InventoryError(
            f"line {lineno}: airflow={airflow} not in {AIRFLOW_VALUES}"
        )
    pharyngeal = _parse_binary(fields[7], "pharyngeal", lineno)
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
    if not path.exists():
        raise InventoryError(f"inventory file not found: {path}")
    entries: dict[str, Phone] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) < 2:
                raise InventoryError(
                    f"line {lineno}: expected tab-separated fields, got {line!r}"
                )
            label = normalize_label(fields[0])
            if not label:
                raise InventoryError(f"line {lineno}: empty label")
            kind = fields[1]
            if kind == "v":
                phone = Phone(label, VOWEL, _parse_vowel(fields, lineno))
            elif kind == "c":
                phone = Phone(label, CONSONANT, _parse_consonant(fields, lineno))
            else:
                raise InventoryError(
                    f"line {lineno}: type must be 'v' or 'c', got {kind!r}"
                )
            if label in entries:
                raise InventoryError(f"line {lineno}: duplicate label {label!r}")
            entries[label] = phone
    if not entries:
        raise InventoryError(f"inventory {path} is empty")
    return FeatureInventory(entries=entries, source=str(path))


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
