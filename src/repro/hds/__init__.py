"""Hot-data-streams co-allocation: the paper's comparison technique (§5.1)."""

from .coalloc import CoallocationSet, coallocation_set, pack_sets, site_assignment
from .pipeline import (
    HdsArtifacts,
    HdsParams,
    HdsRuntime,
    ImmediateSiteMatcher,
    analyse_profile,
    make_runtime,
)
from .sequitur import Rule, Sequitur
from .streams import (
    FlatGrammar,
    HotStream,
    StreamAnalysis,
    StreamParams,
    extract_hot_streams,
)

__all__ = [
    "CoallocationSet",
    "FlatGrammar",
    "HdsArtifacts",
    "HdsParams",
    "HdsRuntime",
    "HotStream",
    "ImmediateSiteMatcher",
    "Rule",
    "Sequitur",
    "StreamAnalysis",
    "StreamParams",
    "analyse_profile",
    "coallocation_set",
    "extract_hot_streams",
    "make_runtime",
    "pack_sets",
    "site_assignment",
]
