#!/usr/bin/env python3
"""Build the full rewrite graph for small sizes and verify every claim on it.

For a fixed number of internal nodes n there are only Catalan(n) shapes, so
the rewrite relation can be materialized as a directed graph and checked
exhaustively: acyclic (termination), locally confluent, a single sink (the
right chain), and exact longest/shortest distances matching sigma and
n - d_rm for every single shape.
"""

from pathlib import Path

from assocnf import (
    build_graph,
    enumerate_shapes,
    export_dot,
    left_chain,
    longest_paths,
    render,
    report_table,
    shortest_paths,
    verify_all,
    verify_sn,
    verify_unique_nf,
    verify_wcr,
)


def banner(title):
    print()
    print("=" * 60)
    print(title)
    print("=" * 60)


def main():
    banner("SHAPE COUNTS (Catalan numbers)")
    for n in range(9):
        print(f"  n={n}: {len(enumerate_shapes(n))} shapes")

    banner("THE n=3 ROTATION GRAPH (a pentagon)")
    g = build_graph(3)
    for u, vs in zip(g.nodes, g.targets):
        targets = ", ".join(g.nodes[v] for v in vs) if vs else "(normal form)"
        print(f"  {u}  ->  {targets}")
    print(f"  termination: {verify_sn(g)}")
    print(f"  local confluence: {verify_wcr(g)}")
    print(f"  unique normal form: {verify_unique_nf(g)}")

    banner("EXACT DISTANCES ON n=4")
    g4 = build_graph(4)
    longest = longest_paths(g4)
    shortest = shortest_paths(g4)
    worst = render(left_chain(4))
    print(f"  worst case {worst}: longest={longest[worst]}, shortest={shortest[worst]}")
    print("  per-shape (longest, shortest):")
    for key in g4.nodes:
        print(f"    {key:<22} ({longest[key]}, {shortest[key]})")

    banner("FULL VERIFICATION REPORT, n <= 7")
    print(report_table(verify_all(7)), end="")

    banner("DOT EXPORT")
    out = Path("rotation_graph_n4.dot")
    with out.open("w", encoding="utf-8") as fh:
        fh.writelines(export_dot(g4))
    print(f"  wrote {out} ({g4.edge_count} edges); render it with:")
    print(f"    dot -Tpng -O {out}")


if __name__ == "__main__":
    main()
