"""Structural-symmetry indexing for free-connex acyclic conjunctive queries.

Build a color index over a relational database once; afterwards any fc-ACQ
can be answered (Boolean, exact count, duplicate-free constant-delay
enumeration) with per-query preprocessing proportional to the color database
rather than to the data.

The package exports the names the README and the demos use; everything else
is imported from its module.
"""

from .index import build as build_color_index
from .model import Schema, cq, validate_database
from .oracle import naive_refine
from .pipeline import DatabaseIndex
from .refinement import encode_loops, refine
from .textio import parse_query

__all__ = [
    "DatabaseIndex",
    "Schema",
    "build_color_index",
    "cq",
    "encode_loops",
    "naive_refine",
    "parse_query",
    "refine",
    "validate_database",
]
