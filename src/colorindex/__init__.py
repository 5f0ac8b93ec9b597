"""Structural-symmetry indexing for free-connex acyclic conjunctive queries.

Build a color index over a relational database once; afterwards any fc-ACQ
can be answered (Boolean, exact count, duplicate-free constant-delay
enumeration) with per-query preprocessing proportional to the color database
rather than to the data.
"""

from .analysis import (
    compute_fc1ghd,
    connected_components,
    gaifman,
    is_acyclic,
    is_free_connex_acyclic,
    variable_order,
)
from .engine import bool_eval, enumerate_plan, preprocess
from .evaluator import count_answers, enumerate_answers, eval_bool, rewrite_loops
from .index import ColorIndex, build as build_color_index, neighbors_by_color, stats
from .model import (
    AnswerSet,
    Atom,
    ConjunctiveQuery,
    ConstantPool,
    Database,
    Schema,
    cq,
    validate_database,
)
from .oracle import brute_answers, naive_refine
from .pipeline import DatabaseIndex, eval_pipeline
from .refinement import encode_loops, is_stable, refine
from .textio import parse_database, parse_query, parse_schema

__all__ = [
    "AnswerSet",
    "Atom",
    "ColorIndex",
    "ConjunctiveQuery",
    "ConstantPool",
    "Database",
    "DatabaseIndex",
    "Schema",
    "bool_eval",
    "brute_answers",
    "build_color_index",
    "compute_fc1ghd",
    "connected_components",
    "count_answers",
    "cq",
    "encode_loops",
    "enumerate_answers",
    "enumerate_plan",
    "eval_bool",
    "eval_pipeline",
    "gaifman",
    "is_acyclic",
    "is_free_connex_acyclic",
    "is_stable",
    "naive_refine",
    "neighbors_by_color",
    "parse_database",
    "parse_query",
    "parse_schema",
    "preprocess",
    "refine",
    "rewrite_loops",
    "stats",
    "validate_database",
    "variable_order",
]
