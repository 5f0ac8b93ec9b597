"""How the coarsest stable coloring behaves on structured graph families.

Two vertices share a color exactly when no counting of neighbors in any
color class can tell them apart.  Highly symmetric inputs collapse to a few
colors; random graphs keep almost one color per vertex.
"""
from colorindex import build_color_index, naive_refine, encode_loops, refine
from colorindex.generators import (
    complete_binary_tree_db,
    cycle_db,
    path_db,
    random_graph_db,
    star_db,
)

for name, db in [
    ("path with 6 vertices", path_db(6)),
    ("cycle with 24 vertices", cycle_db(24)),
    ("star with 10 leaves", star_db(10)),
    ("complete binary tree, height 5", complete_binary_tree_db(5)),
    ("random graph n=40 p=0.5", random_graph_db(40, 0.5, seed=7)),
]:
    idx = build_color_index(db)
    n = len(idx.graph.vertices)
    print(f"{name}: {n} vertices -> {idx.colors} colors "
          f"(color database: {idx.d_col_size} tuples)")

# the worklist refinement and a naive round-based pass land on the same
# partition -- only the class numbering could differ, and both canonicalize
g = encode_loops(complete_binary_tree_db(4))
assert refine(g).partition() == naive_refine(g).partition()
print("\nworklist refinement matches the naive fixed-point pass")

# per-depth classes on the tree: class sizes double with each level
idx = build_color_index(complete_binary_tree_db(4))
sizes = sorted(len(c) for c in idx.coloring.classes)
print("tree class sizes by depth:", sizes)
