"""Calder et al. (ASPLOS 1998) name-based placement — §2.2.3 replication."""

from .naming import NAME_DEPTH, NameTable, name_of
from .pipeline import (
    CalderArtifacts,
    CalderParams,
    CalderRuntime,
    NameMatcher,
    make_runtime,
    profile_workload,
)

__all__ = [
    "CalderArtifacts",
    "CalderParams",
    "CalderRuntime",
    "NAME_DEPTH",
    "NameMatcher",
    "NameTable",
    "make_runtime",
    "name_of",
    "profile_workload",
]
