"""The two schema reductions, on a database small enough to read.

Stage one replaces a ternary relation by one node per projection of a tuple
at increasing positions (the tuple itself included) and position-equality
edges.  Stage two replaces the remaining binary relations
by labeled 4-node gadgets around a single symmetric edge relation.  Both
stages preserve answers bijectively.
"""
from colorindex import Schema, cq, validate_database
from colorindex.arb2bin import decode_answer, encode_db, encode_query
from colorindex.analysis import compute_fc1ghd
from colorindex.bin2graph import encode_db as encode_graph
from colorindex.oracle import brute_answers

schema = Schema.of(("T", 3))
db = validate_database(schema, {"T": [("a", "b", "c"), ("a", "a", "b")]})
print(f"source: {db.size} ternary tuples")

benc = encode_db(db)
print(f"binary encoding: {len(benc.node_proj)} nodes, {len(benc.node_tuple)} of them source tuples, "
      f"schema of {len(benc.db2.schema.symbols)} symbols")


def shown(t):
    return ",".join(db.display(c) for c in t)


# the nodes have ids only; the maps say which tuple or projection each is
for node, t in benc.node_tuple.items():
    print(f"  source tuple node {node}: v({shown(t)})")
arity1 = sorted(f"v({shown(p)})" for p in benc.node_proj.values() if len(p) == 1)
print(f"  projections of arity 1: {arity1}")

# translate a query whose free variables no single atom covers
q = cq(["x", "z"], [("T", ["x", "y", "z"]), ("T", ["x", "x", "z"])])
enc_q = encode_query(compute_fc1ghd(q))
print(f"\nquery translated to {len(enc_q.q2.atoms)} binary atoms, "
      f"head arity {len(enc_q.q2.head)} (source arity {len(q.head)})")

source = brute_answers(q, db)
translated = brute_answers(enc_q.q2, benc.db2)
decoded = sorted(decode_answer(t, enc_q, benc.node_proj) for t in translated.answers.tuples)
print("source answers:   ", sorted(source.answers.tuples))
print("decoded answers:  ", decoded)
assert set(decoded) == set(source.answers.tuples)

genc = encode_graph(benc.db2)
print(f"\ngraph encoding of the binary stage: {len(genc.vmap)} value nodes, "
      f"{len(genc.gadget_node)} gadget nodes, all under one symmetric edge relation")
print("DOT export available via GraphEncoding.to_dot()")
