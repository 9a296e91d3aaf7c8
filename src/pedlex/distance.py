"""Sound-to-sound distances.

Both comparisons return a value in [0, 1]: 0 for identical feature bundles,
1 for maximally different sounds. Vowels are scored as a weighted Manhattan
distance over (open, back) and rounding. Consonants combine a rule-based
manner distance with the place gap; when that combined distance stays at or
below the threshold alpha, voicing and the remaining binary/ternary features
are mixed in with their own weights, otherwise it is returned alone (clamped
to 1). Vowels are never compared with consonants: a cross-type substitution
costs ``cross_type_cost``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .defaults import default_manner_table
from .errors import ConfigError, MannerTableError, open_lines
from .features import CONSONANT, MANNERS, ConsonantFeatures, Phone, VowelFeatures


# The weights of pdc (the first three) and of pdv (the last two) each sum to 1.
CONSONANT_PM_WEIGHT = 2.0 / 3.0
VOICED_WEIGHT = 1.0 / 5.0
BETA = 1.0 - 2.0 / 3.0 - 1.0 / 5.0
VOWEL_NONBINARY_WEIGHT = 2.0 / 3.0
VOWEL_BINARY_WEIGHT = 1.0 / 3.0


@dataclass(frozen=True)
class DistanceConfig:
    """Settings of the phone-distance formulas; the weights are constants.

    ``alpha`` is the consonants' place+manner threshold, ``cross_type_cost``
    the vowel/consonant substitution cost. ``literal_vowel_branch`` switches
    the vowel formula to the two-branch variant that charges (d_ob + 1)/3
    whenever the open/back gap is at most 0.5; the default uniform formula
    scores every pair as the weighted Manhattan distance. Both agree on
    pairs with an open/back gap above 0.5.
    """

    alpha: float = 0.5
    literal_vowel_branch: bool = False
    cross_type_cost: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.cross_type_cost <= 1.0:
            raise ConfigError(f"cross_type_cost={self.cross_type_cost} outside [0, 1]")
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigError(f"alpha={self.alpha} outside (0, 1]")


@dataclass(frozen=True)
class MannerDistanceTable:
    """Symmetric manner-pair distances with a zero diagonal."""

    entries: dict[tuple[str, str], float]

    def __post_init__(self):
        for m1 in MANNERS:
            for m2 in MANNERS:
                value = self.entries.get((m1, m2))
                if value is None:
                    raise MannerTableError(f"missing manner pair ({m1}, {m2})")
                if not 0.0 <= value <= 1.0:
                    raise MannerTableError(
                        f"distance {value} for ({m1}, {m2}) outside [0, 1]"
                    )
                if value != self.entries.get((m2, m1)):
                    raise MannerTableError(f"asymmetric pair ({m1}, {m2})")
            if self.entries.get((m1, m1)) != 0.0:
                raise MannerTableError(f"nonzero diagonal for {m1}")

    def lookup(self, m1: str, m2: str) -> float:
        try:
            return self.entries[(m1, m2)]
        except KeyError:
            raise MannerTableError(f"no distance for manner pair ({m1}, {m2})") from None


def load_manner_table(path: str | Path) -> MannerDistanceTable:
    """Load ``manner1<TAB>manner2<TAB>distance`` rows; symmetric closure and a
    zero diagonal are filled in, and the result is validated complete."""
    path = Path(path)
    entries: dict[tuple[str, str], float] = {(m, m): 0.0 for m in MANNERS}
    with open_lines(path, MannerTableError, "manner table") as lines:
        for lineno, line in lines:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split("\t")
            where = f"{path} line {lineno}"
            if len(fields) != 3:
                raise MannerTableError(f"{where}: expected 'manner1<TAB>manner2<TAB>distance'")
            m1, m2, text = fields
            for m in (m1, m2):
                if m not in MANNERS:
                    raise MannerTableError(f"{where}: unknown manner {m!r}")
            try:
                value = float(text)
            except ValueError:
                raise MannerTableError(f"{where}: bad distance {text!r}") from None
            if not 0.0 <= value <= 1.0:
                raise MannerTableError(
                    f"{where}: distance {value} for ({m1}, {m2}) outside [0, 1]"
                )
            key = (m1, m2)
            if key in entries and entries[key] != value:
                raise MannerTableError(f"{where}: conflicting duplicate for ({m1}, {m2})")
            entries[(m1, m2)] = value
            entries[(m2, m1)] = value
    try:
        return MannerDistanceTable(entries=entries)
    except MannerTableError as exc:
        raise MannerTableError(f"{path}: {exc}") from None


def pdv(w: VowelFeatures, x: VowelFeatures, cfg: DistanceConfig) -> float:
    """Vowel-to-vowel distance in [0, 1]."""
    d_ob = abs(w.open - x.open) + abs(w.back - x.back)
    d_r = abs(w.rounded - x.rounded)
    if cfg.literal_vowel_branch:
        if d_ob > 0.5:
            return (d_ob + d_r) / 3.0
        return (d_ob + 1.0) / 3.0
    # uniform weighted Manhattan: open/back span 2 units, rounding spans 1
    return VOWEL_NONBINARY_WEIGHT * (d_ob / 2.0) + VOWEL_BINARY_WEIGHT * d_r


def pdc(
    w: ConsonantFeatures,
    x: ConsonantFeatures,
    cfg: DistanceConfig,
    xi: MannerDistanceTable,
) -> float:
    """Consonant-to-consonant distance in [0, 1]."""
    d_mp = xi.lookup(w.manner, x.manner) + abs(w.place - x.place)
    if d_mp > cfg.alpha:
        return min(d_mp, 1.0)
    d_v = abs(w.voiced - x.voiced) * VOICED_WEIGHT
    remaining = (
        abs(w.aspirated - x.aspirated)
        + abs(w.airflow - x.airflow)
        + abs(w.pharyngeal - x.pharyngeal)
    ) / 3.0
    return d_mp * CONSONANT_PM_WEIGHT + d_v + remaining * BETA


def phonetic_difference(
    a: Phone, b: Phone, cfg: DistanceConfig, xi: MannerDistanceTable
) -> float:
    """Substitution cost between two phones; identical labels cost 0."""
    if a.label == b.label:
        return 0.0
    if a.type != b.type:
        return cfg.cross_type_cost
    if a.type == CONSONANT:
        return pdc(a.features, b.features, cfg, xi)
    return pdv(a.features, b.features, cfg)


class SubstitutionCosts:
    """Phone-pair substitution costs under one config and manner table.

    The one handle for a distance model: ``ped``, ``align_lists`` and
    ``build_matrix`` take it as ``costs=``. An omitted ``cfg`` or ``xi``
    takes the default: ``DistanceConfig()`` and the bundled manner table.
    It keeps nothing but the two, so it serves any inventory and pickles
    small.
    """

    def __init__(
        self, cfg: DistanceConfig | None = None, xi: MannerDistanceTable | None = None
    ):
        self.cfg = cfg if cfg is not None else DistanceConfig()
        self.xi = xi if xi is not None else default_manner_table()

    def pair(self, a: Phone, b: Phone) -> float:
        return phonetic_difference(a, b, self.cfg, self.xi)

    def rows_for(self, phones_a, phones_b) -> list[list[float]]:
        """Dense cost table for the DP: rows[i][j] prices phones_a[i]
        against phones_b[j]. A run prices its distinct phones against each
        other; ``ped`` prices one word against the other, by position."""
        return [[self.pair(a, b) for b in phones_b] for a in phones_a]
