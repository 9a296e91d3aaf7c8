"""Command-line interface.

Subcommands: dist (distance of two IPA words), phones (tokenize and show
features), extract (CoNLL-U to per-tag lemma lists), g2p (lemma list to IPA),
compare (one list pair), matrix (all pairs in a directory). Data goes to
stdout or --out files, diagnostics to stderr. Exit codes: 0 ok, 1 bad input,
2 internal error.
"""

from __future__ import annotations

import argparse
import functools
import logging
import os
import sys
import traceback
from pathlib import Path

from . import defaults
from .corpus import (
    TARGET_TAGS,
    check_header_value,
    g2p_convert,
    extract_wordlists,
    load_g2p_table,
    read_wordlist,
    write_wordlist,
)
from .distance import DistanceConfig, SubstitutionCosts, load_manner_table
from .errors import PedlexError, check_writable, write_text
from .features import load_inventory, paper_voice
from .ped import ped
from .similarity import (
    DEFAULT_MIN_SIZE,
    SimilarityReport,
    align_lists,
    build_matrix,
    check_distinct,
    format_report,
)
from .tokenizer import tokenize


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_distance_flags(parser):
    parser.add_argument("--inventory", metavar="FILE", help="feature inventory file")
    parser.add_argument("--manner-table", metavar="FILE", help="manner distance file")
    parser.add_argument("--alpha", type=float, default=None,
                        help="place+manner threshold (default 0.5)")
    parser.add_argument("--cross-type-cost", type=float, default=None,
                        help="vowel/consonant substitution cost (default 1.0)")
    parser.add_argument("--literal-vowel-branch", action="store_true",
                        help="use the two-branch vowel formula")
    parser.add_argument("--paper-mode", action="store_true",
                        help="literal vowel branch plus published voice encoding")
    _add_verbose_flag(parser)


def _add_verbose_flag(parser):
    parser.add_argument("-v", "--verbose", action="count", default=0)


class _StderrHandler(logging.StreamHandler):
    """Writes to ``sys.stderr`` as it is at each record, so a caller that
    redirects stderr around one ``main`` call keeps no later diagnostics."""

    def __init__(self):
        logging.Handler.__init__(self)

    stream = property(lambda self: sys.stderr)


def _configure_logging(args) -> None:
    level = logging.WARNING
    if args.verbose == 1:
        level = logging.INFO
    elif args.verbose >= 2:
        level = logging.DEBUG
    # basicConfig adds its handler only while the root logger has none, and
    # sets no level after that, so the level is set on every call
    logging.basicConfig(handlers=[_StderrHandler()], format="%(name)s: %(message)s")
    logging.getLogger().setLevel(level)


def _load_inventory(args):
    """The inventory named by --inventory, voice-overlaid under --paper-mode."""
    inventory = load_inventory(args.inventory or defaults.default_inventory_path())
    return paper_voice(inventory) if args.paper_mode else inventory


def _load_tables(args):
    """(inventory, SubstitutionCosts) named by the distance flags."""
    inventory = _load_inventory(args)
    xi = load_manner_table(args.manner_table or defaults.default_manner_table_path())
    overrides = {}
    if args.alpha is not None:
        overrides["alpha"] = args.alpha
    if args.cross_type_cost is not None:
        overrides["cross_type_cost"] = args.cross_type_cost
    if args.literal_vowel_branch or args.paper_mode:
        overrides["literal_vowel_branch"] = True
    return inventory, SubstitutionCosts(DistanceConfig(**overrides), xi)


def _cmd_dist(args) -> int:
    inventory, costs = _load_tables(args)
    a = tokenize(args.ipa1, inventory)
    b = tokenize(args.ipa2, inventory)
    result = ped(a, b, costs=costs, trace=args.trace)
    value = result.normalized if args.normalized else result.distance
    print(f"{value:.3f}")
    if args.trace:
        for op in result.ops_trace:
            print(f"{op.op}\t{op.source or '-'}→{op.target or '-'}\t{op.cost:.3f}")
    return 0


def _cmd_phones(args) -> int:
    for phone in tokenize(args.ipa, _load_inventory(args)):
        f = phone.features
        if phone.is_vowel:
            detail = f"open={f.open:g} back={f.back:g} rounded={f.rounded}"
        else:
            detail = (
                f"manner={f.manner} place={f.place:g} voiced={f.voiced} "
                f"aspirated={f.aspirated} airflow={f.airflow:g} pharyngeal={f.pharyngeal}"
            )
        print(f"{phone.label}\t{phone.type}\t{detail}")
    return 0


def _cmd_extract(args) -> int:
    check_header_value("--lang", args.lang)
    tags = args.pos or list(TARGET_TAGS)
    for tag in tags:
        if tag not in TARGET_TAGS:
            raise PedlexError(f"unsupported tag {tag!r}; choose from {', '.join(TARGET_TAGS)}")
    check_writable(args.out_dir, PedlexError, "--out-dir", directory=True)
    wordlists = extract_wordlists(args.input, args.lang)
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise PedlexError(f"cannot create --out-dir {out_dir}: {exc.strerror or exc}") from None
    written = 0
    for wl in wordlists:
        if wl.pos not in tags:
            continue
        out_path = out_dir / f"{wl.language}_{wl.pos}.tsv"
        write_wordlist(wl, out_path)
        print(f"wrote {out_path} ({len(wl.lemmas)} lemmas)", file=sys.stderr)
        written += 1
    if written == 0:
        print("no target-tag lemmas found", file=sys.stderr)
    return 0


def _cmd_g2p(args) -> int:
    check_writable(args.out, PedlexError, "word list")
    table_path = args.table or defaults.default_g2p_table_path(args.script)
    table = load_g2p_table(table_path, script=args.script)
    words = read_wordlist(args.infile)
    converted = g2p_convert(words, table)
    write_wordlist(converted, args.out)
    kept = len(converted.ipa_by_lemma or {})
    print(
        f"converted {kept}/{len(words.lemmas)} lemmas of ({words.language}, {words.pos})",
        file=sys.stderr,
    )
    return 0


def _cmd_compare(args) -> int:
    inventory, costs = _load_tables(args)
    lists = [read_wordlist(args.a), read_wordlist(args.b)]
    if not Path(args.a).samefile(args.b):  # one file twice is its self-similarity
        check_distinct(lists)
    cell = align_lists(
        *lists,
        inventory,
        costs=costs,
        min_size=args.min_size,
        shuffle_seed=_parse_order(args.order),
        skip_unknown=args.skip_unknown,
    )
    sys.stdout.write(format_report(SimilarityReport(cells=(cell,))))
    return 0


def _parse_order(order: str | None):
    if order is None or order == "sorted":
        return None
    if order.startswith("shuffle:"):
        try:
            return int(order.split(":", 1)[1])
        except ValueError:
            pass
    raise PedlexError(f"bad --order value {order!r}; use sorted or shuffle:<seed>")


def _usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask, where the
    platform has one), not every CPU of the host."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _cmd_matrix(args) -> int:
    if args.jobs is not None and args.jobs < 1:
        raise PedlexError(f"--jobs must be at least 1, got {args.jobs}")
    check_writable(args.out, PedlexError, "report")
    inventory, costs = _load_tables(args)
    lists_dir = Path(args.lists)
    if not lists_dir.is_dir():
        raise PedlexError(f"--lists must be a directory of word-list files: {lists_dir}")
    lists = [read_wordlist(p) for p in sorted(lists_dir.glob("*.tsv"))]
    if not lists:
        raise PedlexError(f"no .tsv word lists in {lists_dir}")
    jobs = args.jobs or _usable_cpus()
    report = build_matrix(
        lists,
        inventory,
        costs=costs,
        min_size=args.min_size,
        skip_unknown=args.skip_unknown,
        jobs=jobs,
    )
    text = format_report(report, args.out_format)
    write_text(args.out, text, PedlexError, "report")
    print(f"wrote {args.out} ({len(report.cells)} cells)", file=sys.stderr)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(prog="pedlex", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("dist", help="phonetic edit distance of two IPA words")
    p.add_argument("ipa1")
    p.add_argument("ipa2")
    p.add_argument("--normalized", action="store_true",
                   help="divide by the longer token length")
    p.add_argument("--trace", action="store_true", help="print the aligned edit script")
    _add_distance_flags(p)
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("phones",
                       help="tokenize an IPA word and show its features")
    p.add_argument("ipa")
    p.add_argument("--inventory", metavar="FILE", help="feature inventory file")
    p.add_argument("--paper-mode", action="store_true", help="published voice encoding")
    _add_verbose_flag(p)
    p.set_defaults(func=_cmd_phones)

    p = sub.add_parser("extract",
                       help="extract per-tag lemma lists from a CoNLL-U file")
    p.add_argument("--input", required=True, metavar="FILE.conllu")
    p.add_argument("--lang", required=True, help="language id for the output lists")
    p.add_argument("--pos", action="append", metavar="TAG",
                   help="restrict to this tag (repeatable; default: all ten)")
    p.add_argument("--out-dir", required=True)
    _add_verbose_flag(p)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("g2p",
                       help="convert a lemma list to IPA with a grapheme table")
    p.add_argument("--script", required=True, choices=("perso-arabic", "devanagari"))
    p.add_argument("--table", metavar="FILE", help="override the bundled table")
    p.add_argument("--in", dest="infile", required=True, metavar="LIST")
    p.add_argument("--out", required=True, metavar="LIST")
    _add_verbose_flag(p)
    p.set_defaults(func=_cmd_g2p)

    p = sub.add_parser("compare",
                       help="similarity of two word-list files")
    p.add_argument("--a", required=True, metavar="LIST")
    p.add_argument("--b", required=True, metavar="LIST")
    p.add_argument("--min-size", type=int, default=DEFAULT_MIN_SIZE,
                   help="skip lists smaller than this (default 5)")
    p.add_argument("--order", default="sorted", metavar="sorted|shuffle:<seed>",
                   help="iteration order of the shorter list")
    p.add_argument("--skip-unknown", action="store_true",
                   help="drop words with untokenizable IPA instead of failing")
    _add_distance_flags(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("matrix",
                       help="similarity matrix over a directory of word lists")
    p.add_argument("--lists", required=True, metavar="DIR")
    p.add_argument("--out", required=True, metavar="FILE")
    p.add_argument("--out-format", default="csv", choices=("csv", "long-tsv"))
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default: one per CPU this process may use)")
    p.add_argument("--min-size", type=int, default=DEFAULT_MIN_SIZE)
    p.add_argument("--skip-unknown", action="store_true")
    _add_distance_flags(p)
    p.set_defaults(func=_cmd_matrix)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    _configure_logging(args)
    try:
        return args.func(args)
    except PedlexError as exc:
        print(f"pedlex: error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        print("pedlex: internal error", file=sys.stderr)
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
