"""pedlex: articulatory-feature phonetic edit distance and lexical similarity.

Pipeline: CoNLL-U corpora -> per-tag lemma lists -> rule-based IPA ->
feature bundles -> weighted edit distance -> greedy list alignment ->
PoS-by-language-pair similarity matrix.
"""

from .corpus import (
    G2PTable,
    TARGET_TAGS,
    WordList,
    convert_word,
    extract_wordlists,
    g2p_convert,
    load_g2p_table,
    read_wordlist,
    write_wordlist,
)
from .defaults import default_inventory, default_manner_table
from .distance import (
    DistanceConfig,
    MannerDistanceTable,
    SubstitutionCosts,
    load_manner_table,
    pdc,
    pdv,
    phonetic_difference,
)
from .errors import PedlexError
from .features import (
    ConsonantFeatures,
    FeatureInventory,
    Phone,
    VowelFeatures,
    load_inventory,
    paper_voice,
    save_inventory,
)
from .ped import DpStats, EditOp, PedResult, ped
from .similarity import SimilarityCell, SimilarityReport, align_lists, build_matrix, format_report
from .tokenizer import tokenize

__version__ = "0.1.0"

__all__ = [
    "ConsonantFeatures",
    "DistanceConfig",
    "DpStats",
    "EditOp",
    "FeatureInventory",
    "G2PTable",
    "MannerDistanceTable",
    "PedResult",
    "PedlexError",
    "Phone",
    "SimilarityCell",
    "SimilarityReport",
    "SubstitutionCosts",
    "TARGET_TAGS",
    "VowelFeatures",
    "WordList",
    "align_lists",
    "build_matrix",
    "convert_word",
    "default_inventory",
    "default_manner_table",
    "extract_wordlists",
    "format_report",
    "g2p_convert",
    "load_g2p_table",
    "load_inventory",
    "load_manner_table",
    "paper_voice",
    "ped",
    "pdc",
    "pdv",
    "phonetic_difference",
    "read_wordlist",
    "save_inventory",
    "tokenize",
    "write_wordlist",
]
