"""End-to-end tour on a small movie database.

Four binary relations relate actors, characters, movies, and screen times.
We force the full staging (arbitrary -> binary -> graph) to show every layer,
index the final graph once, and then answer one query under all three tasks.
"""
from colorindex import DatabaseIndex, Schema, parse_query, validate_database

schema = Schema.of(("P", 2), ("A", 2), ("M", 2), ("S", 2))
db = validate_database(
    schema,
    {
        "P": [("PS", "LM"), ("PS", "MM")],  # actor plays character
        "A": [("LM", "PS"), ("MM", "PS")],  # character acted by actor
        "M": [("LM", "Dr.S"), ("MM", "Dr.S")],  # character appears in movie
        "S": [("LM", "18m"), ("MM", "34m")],  # screen time
    },
)
print(f"database: {db.size} tuples over {len(db.active_domain())} constants")

idx = DatabaseIndex.build(db, stage="full")
print(f"staging: {idx.stage}")
print(f"  nodes after the binary reduction: {len(idx.node_proj)}, {len(idx.node_tuple)} of them source tuples")
ci = idx.cindex
entries = ci.vertex_count - len(ci.graph.vertices)
print(f"  typed index: {len(ci.graph.vertices)} values, {entries} entries, {ci.coloring.num_colors} value colors, "
      f"{len(ci.edges.rev)} edge colors; color database size: {ci.d_col_size}")

# characters x and y1 such that some actor x... plays two characters, one of
# them y1 -- the classic self-join pattern
q = parse_query("Ans(x,y1) :- A(x,y1), A(x,y2), P(y2,x).", schema)
print("\nquery:", "Ans(x,y1) :- A(x,y1), A(x,y2), P(y2,x).")

print("enum:")
for t in idx.enumerate(q):
    print("  ", ",".join(idx.pool.display(c) for c in t))
print("count:", idx.count(q))

boolean = parse_query("Ans() :- A(x,y1), A(x,y2), P(y2,x).", schema)
print("bool (existential closure):", "yes" if idx.eval_bool(boolean) else "no")
