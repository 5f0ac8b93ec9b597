"""Querying a labeled graph through the color index.

A graph with unary labels and a self-loop is indexed once; afterwards each
query only preprocesses against the color database.  Loops in queries
(edge atoms with a repeated variable) are rewritten onto the loop label.
"""
from colorindex import DatabaseIndex, Schema, parse_query, validate_database

schema = Schema.of(("E", 2), ("Blue", 1), ("Red", 1))
db = validate_database(
    schema,
    {
        "E": [
            ("a", "b"), ("b", "a"),
            ("b", "c"), ("c", "b"),
            ("c", "d"), ("d", "c"),
            ("d", "a"), ("a", "d"),
            ("d", "d"),  # a self-loop
        ],
        "Blue": [("a",), ("c",)],
        "Red": [("b",), ("d",)],
    },
)
idx = DatabaseIndex.build(db)
ci = idx.cindex
print(f"|D|={ci.source_size} |D_L|={ci.labeled_size} |C|={ci.colors} "
      f"|D_col|={ci.d_col_size} ratio={ci.color_ratio:.2f}")
for c, members in enumerate(ci.coloring.classes):
    shown = ",".join(db.display(v) for v in members)
    print(f"  color {c}: {{{shown}}} labels={sorted(ci.graph.vl[members[0]])}")

v = members[0]
# v's row is in bucket order: bucket c, its neighbors of color c, is a slice
# whose offsets all vertices of v's color share
print(f"neighbors of {db.display(v)} by color:",
      {c: [db.display(u) for u in ci.graph.adj[v][s]] for c, s in ci.buckets[ci.color_of(v)].items()})

queries = [
    "Ans(x) :- E(x,y), Blue(y).",
    "Ans(x,y) :- E(x,y), Red(x), Blue(y).",
    "Ans(x) :- E(x,x).",          # rewritten to the loop label internally
    "Ans() :- E(x,y), E(y,z), Blue(x), Blue(z).",
]
for text in queries:
    q = parse_query(text, schema)
    if q.is_boolean():
        print(f"{text}  ->  {'yes' if idx.eval_bool(q) else 'no'}")
    else:
        answers = sorted(idx.enumerate(q))
        shown = ["(" + ",".join(db.display(c) for c in t) + ")" for t in answers]
        print(f"{text}  ->  count={idx.count(q)}  {' '.join(shown)}")
