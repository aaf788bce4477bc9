"""Reference copy of the crystal graph operations as they were while a graph
held its paths from the start: Demazure subcrystals, components, arrow
filters and tensor products run on dicts and sets keyed by ``Path``.  Kept
as a differential oracle for the vertex-number tables of
``demazure.crystal``.  Test use only.

``demazure_subcrystal``, ``component_of`` and ``filter_arrows`` are the
earlier functions' bodies with the package's traversal written out in them.
``tensor_crystal`` lowers every concatenation by the root operators and keeps
an arrow when its target is again a concatenation, which is the pair rule
in Littelmann's path model.  The path type and operators are imported from
the package, so old and new results compare with ``==``.
"""

from demazure.crystal import CrystalGraph, root_operator_f


def tensor_crystal(rs, b1, b2):
    verts = [u.concat(v) for u in b1.vertices for v in b2.vertices]
    vset = set(verts)
    edges = tuple((u, w, i) for u in verts for i in range(1, rs.rank + 1)
                  if (w := root_operator_f(rs, i, u)) in vset)
    tops = (b1.highest, b2.highest)
    return CrystalGraph(tuple(verts), edges, None if None in tops else tops[0].concat(tops[1]))


def _restrict(b, keep):
    return CrystalGraph(tuple(v for v in b.vertices if v in keep),
                        tuple(e for e in b.edges if e[0] in keep and e[1] in keep),
                        b.highest if b.highest in keep else None)


def _vertex_of_weight(b, weight):
    matches = [v for v in b.vertices if v.weight() == weight]
    if len(matches) != 1:
        raise ValueError("%d vertices of weight %r" % (len(matches), weight))
    return matches[0]


def demazure_subcrystal(rs, b, word, lam):
    lam = tuple(lam)
    fmap = {(u, i): v for u, v, i in b.edges}
    top = b.highest if b.highest is not None else _vertex_of_weight(b, lam)
    if top.weight() != lam:
        raise ValueError("highest vertex has weight %r, expected %r" % (top.weight(), lam))
    u = top
    for i in reversed(tuple(word)):
        while (u, i) in fmap:
            u = fmap[(u, i)]
    if u.weight() != tuple(rs.weyl_apply(tuple(word), lam)):
        raise ValueError("extremal weight not reached")
    keep = {top}
    for i in reversed(tuple(word)):
        for v in list(keep):
            while (v, i) in fmap:
                v = fmap[(v, i)]
                keep.add(v)
    return _restrict(b, keep)


def component_of(b, weight):
    start = _vertex_of_weight(b, tuple(weight))
    keep, queue = {start}, [start]
    for u in queue:
        for e in b.edges:
            for x, y in ((e[0], e[1]), (e[1], e[0])):
                if x == u and y not in keep:
                    keep.add(y)
                    queue.append(y)
    return _restrict(b, keep)


def filter_arrows(b, nodes):
    return CrystalGraph(b.vertices, tuple(e for e in b.edges if e[2] in set(nodes)), b.highest)
