"""Reference copy of ``build_crystal`` as it was before the search moved to
index tuples of a product of fundamental crystals: the closure of the
straight path under every lowering operator, one ``root_operator_f`` per
(vertex, node) pair.  Kept as a differential oracle.  Test use only.

``build_crystal`` below is the earlier function's body, with the package's
breadth-first search written out in it, so the oracle shares no traversal
with the code it checks.  The path type and operators are imported from the
package, so old and new results compare with ``==``.
"""

from __future__ import annotations

from math import prod

from demazure.crystal import CrystalGraph, Path, root_operator_f
from demazure.rootdata import RootSystem


def build_crystal(rs: RootSystem, lam, *, budget=10 ** 6) -> CrystalGraph:
    """Closure of the straight path to ``lam`` under all lowering operators;
    RuntimeError up front when dim V(lam) (Weyl) is over ``budget`` vertices."""
    lam = rs.check_weight(lam)
    if not rs.is_dominant(lam):
        raise ValueError("highest weight must be dominant")
    rho = (1,) * rs.rank  # prod (lam + rho)(h_alpha) / rho(h_alpha) = dim V(lam)
    if prod(rs.pairings([c + 1 for c in lam])) > budget * prod(rs.pairings(rho)):
        raise RuntimeError("vertex budget exceeded")
    top = Path.straight(lam)
    order, seen, edges = [top], {top}, []
    for u in order:  # order grows while it is read: it is the queue
        for i in range(1, rs.rank + 1):
            v = root_operator_f(rs, i, u)
            if v is None:
                continue
            edges.append((u, v, i))
            if v not in seen:
                if len(seen) >= budget:
                    raise RuntimeError("vertex budget exceeded")
                seen.add(v)
                order.append(v)
    return CrystalGraph(tuple(order), tuple(edges), top)
