#!/usr/bin/env python3
"""Desk check: the cognate word pairs that anchor the default tables.

Prints the per-sound substitution costs and the resulting edit distances for
the German/Persian 'father' pair, the Hebrew/Arabic greeting pair, and the
pen/bend insertion example, with both the default and the literal vowel
formula.
"""

from pedlex import DistanceConfig, SubstitutionCosts, default_inventory, ped, tokenize

PAIRS = [
    ("fa:tər", "pedær"),
    ("ʃəlɒm", "səla:m"),
    ("pɛn", "bɛnd"),
]


def show(cfg, label):
    inv = default_inventory()
    costs = SubstitutionCosts(cfg)
    print(f"--- {label} ---")
    for left, right in PAIRS:
        a, b = tokenize(left, inv), tokenize(right, inv)
        result = ped(a, b, costs=costs, trace=True)
        print(f"{left} -> {right}: distance {result.distance:.3f} "
              f"(normalized {result.normalized:.3f})")
        for op in result.ops_trace:
            src = op.source or "-"
            tgt = op.target or "-"
            print(f"    {op.op:<10} {src:>3} -> {tgt:<3} {op.cost:.3f}")
    print()


def main():
    show(DistanceConfig(), "default vowel formula")
    show(DistanceConfig(literal_vowel_branch=True), "literal vowel branch")


if __name__ == "__main__":
    main()
