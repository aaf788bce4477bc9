"""Reference copy of the Fraction-based path crystal, kept as a differential
oracle for the integer implementation in ``demazure.crystal``.  Test use only.

The code below is the earlier module unchanged, apart from this paragraph
and an absolute import of ``RootSystem``.

A path is stored as its sequence of straight-line displacement vectors in
fundamental-weight coordinates, with exact rational entries.  Consecutive
displacements pointing in the same direction are merged, so two paths are
equal exactly when they trace the same broken line; zero displacements are
dropped.  Opposite directions are never merged: a zigzag that backtracks is
a different path from its net displacement.

For a node i let h(t) be the pairing of the partial sum with the coroot of
alpha_i and M = min h (attained at a corner).  The lowering operator f_i is
defined iff h(1) - M >= 1; it reflects the displacements by s_i between the
last corner where h = M and the first point afterwards where h = M + 1,
splitting a displacement at the crossing when it falls inside one.  The
raising operator e_i is the mirror: defined iff -M >= 1, it reflects the
window between the last crossing of M + 1 and the first corner where h = M.
Both reject paths whose h dips inside the working window, which cannot
happen for paths generated from a straight dominant path.
"""

from __future__ import annotations

import collections
from dataclasses import dataclass
from fractions import Fraction

from demazure.rootdata import RootSystem


def _direction_ratio(u, v):
    """Positive c with v == c*u, or None."""
    c = None
    for a, b in zip(u, v):
        if a == 0:
            if b != 0:
                return None
        else:
            r = b / a
            if c is None:
                c = r
            elif r != c:
                return None
    if c is None or c <= 0:
        return None
    return c


def _merge(steps):
    out = []
    for raw in steps:
        step = tuple(Fraction(x) for x in raw)
        if all(x == 0 for x in step):
            continue
        if out and _direction_ratio(out[-1], step) is not None:
            out[-1] = tuple(a + b for a, b in zip(out[-1], step))
        else:
            out.append(step)
    return tuple(out)


@dataclass(frozen=True, order=True)
class Path:
    steps: tuple
    rank: int

    def __post_init__(self):
        object.__setattr__(self, "steps", _merge(self.steps))

    @classmethod
    def straight(cls, weight):
        weight = tuple(weight)
        return cls((weight,), len(weight))

    def endpoint(self):
        total = [Fraction(0)] * self.rank
        for step in self.steps:
            for pos, x in enumerate(step):
                total[pos] += x
        return tuple(total)

    def weight(self):
        end = self.endpoint()
        assert all(x.denominator == 1 for x in end)
        return tuple(int(x) for x in end)

    def concat(self, other):
        assert self.rank == other.rank
        return Path(self.steps + other.steps, self.rank)


def _corners(rs: RootSystem, i: int, path: Path):
    cor = rs.coroot_vector(rs.simple_root(i))
    h = [Fraction(0)]
    for step in path.steps:
        h.append(h[-1] + sum(c * x for c, x in zip(cor, step)))
    return h


def phi(rs: RootSystem, i: int, path: Path):
    """Length of the f_i string below the path: h(1) - min h."""
    h = _corners(rs, i, path)
    return h[-1] - min(h)

def eps(rs: RootSystem, i: int, path: Path):
    """Length of the e_i string above the path: -min h."""
    return -min(_corners(rs, i, path))


def _check_node(rs, i):
    if not 1 <= i <= rs.rank:
        raise ValueError("node %r is not a finite node" % (i,))


def root_operator_f(rs: RootSystem, i: int, path: Path):
    _check_node(rs, i)
    steps = path.steps
    h = _corners(rs, i, path)
    m = min(h)
    if h[-1] - m < 1:
        return None
    t1 = max(j for j, v in enumerate(h) if v == m)
    new = list(steps[:t1])
    j = t1
    while True:
        nxt = h[j + 1]
        if nxt < h[j]:
            raise ValueError("descent inside the lowering window")
        step = steps[j]
        if nxt >= m + 1:
            if nxt == m + 1:
                new.append(rs.reflect(i, step))
            else:
                c = (m + 1 - h[j]) / (nxt - h[j])
                first = tuple(c * x for x in step)
                new.append(rs.reflect(i, first))
                new.append(tuple(x - y for x, y in zip(step, first)))
            j += 1
            break
        new.append(rs.reflect(i, step))
        j += 1
    new.extend(steps[j:])
    return Path(tuple(new), path.rank)


def root_operator_e(rs: RootSystem, i: int, path: Path):
    _check_node(rs, i)
    steps = path.steps
    h = _corners(rs, i, path)
    m = min(h)
    if -m < 1:
        return None
    t2 = min(j for j, v in enumerate(h) if v == m)
    tail = list(steps[t2:])
    window = []
    j = t2
    while True:
        prev = h[j - 1]
        if prev < h[j]:
            raise ValueError("ascent inside the raising window")
        step = steps[j - 1]
        if prev >= m + 1:
            if prev == m + 1:
                window.insert(0, rs.reflect(i, step))
                head = list(steps[:j - 1])
            else:
                c = (prev - (m + 1)) / (prev - h[j])
                first = tuple(c * x for x in step)
                window.insert(0, rs.reflect(i, tuple(x - y for x, y in zip(step, first))))
                head = list(steps[:j - 1]) + [first]
            break
        window.insert(0, rs.reflect(i, step))
        j -= 1
    return Path(tuple(head + window + tail), path.rank)


@dataclass(frozen=True)
class CrystalGraph:
    vertices: tuple       # Path, in discovery order
    edges: tuple          # (source, target, label), target = f_label(source)
    highest: Path | None


def build_crystal(rs: RootSystem, lam, *, budget=10 ** 6) -> CrystalGraph:
    """Closure of the straight path to ``lam`` under all lowering operators."""
    lam = tuple(lam)
    if not rs.is_dominant(lam):
        raise ValueError("highest weight must be dominant")
    top = Path.straight(lam)
    seen = {top}
    order = [top]
    edges = []
    queue = collections.deque([top])
    while queue:
        u = queue.popleft()
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
                queue.append(v)
    return CrystalGraph(tuple(order), tuple(edges), top)


def tensor_crystal(rs: RootSystem, b1: CrystalGraph, b2: CrystalGraph) -> CrystalGraph:
    """Concatenation model of the tensor product: vertices are pairwise
    concatenated paths, edges recomputed by the root operators and kept when
    the target is again a concatenation."""
    verts = [u.concat(v) for u in b1.vertices for v in b2.vertices]
    vset = set(verts)
    # distinct pairs must give distinct broken lines
    assert len(vset) == len(b1.vertices) * len(b2.vertices)
    edges = []
    for u in verts:
        for i in range(1, rs.rank + 1):
            w = root_operator_f(rs, i, u)
            if w is not None and w in vset:
                edges.append((u, w, i))
    highest = None
    if b1.highest is not None and b2.highest is not None:
        highest = b1.highest.concat(b2.highest)
    return CrystalGraph(tuple(verts), tuple(edges), highest)


def _edge_maps(b: CrystalGraph):
    fmap = {}
    emap = {}
    for u, v, i in b.edges:
        assert (u, i) not in fmap and (v, i) not in emap
        fmap[(u, i)] = v
        emap[(v, i)] = u
    return fmap, emap


def demazure_subcrystal(rs: RootSystem, b: CrystalGraph, word, lam) -> CrystalGraph:
    """Subgraph of the word's Demazure subcrystal: starting from the set
    {highest vertex}, saturate by full f_i-strings for each letter of the
    word, rightmost letter first.  A vertex survives exactly when maximal
    raisings e_i^max applied letter by letter (leftmost letter last) return
    it to the highest vertex.

    Saturating by whole strings matters: a vertex may enter through the
    interior of a string whose head lies above the extremal vertex, so the
    result can be strictly larger than what raising walks from the extremal
    vertex reach, and it grows monotonically as letters are appended."""
    lam = tuple(lam)
    fmap, _ = _edge_maps(b)
    if b.highest is not None:
        top = b.highest
    else:
        tops = [v for v in b.vertices if v.weight() == lam]
        if len(tops) != 1:
            raise ValueError("no unique vertex of weight %r" % (lam,))
        top = tops[0]
    if top.weight() != lam:
        raise ValueError("highest vertex has weight %r, expected %r"
                         % (top.weight(), lam))
    # words that are not reduced fail to land on the reflected weight
    u = top
    for i in reversed(tuple(word)):
        _check_node(rs, i)
        while (u, i) in fmap:
            u = fmap[(u, i)]
    target = tuple(rs.weyl_apply(tuple(word), lam))
    if u.weight() != target:
        raise ValueError("extremal weight %r not reached (got %r)"
                         % (target, u.weight()))
    keep = {top}
    for i in reversed(tuple(word)):
        for v in tuple(keep):
            w = v
            while (w, i) in fmap:
                w = fmap[(w, i)]
                keep.add(w)
    verts = tuple(v for v in b.vertices if v in keep)
    edges = tuple(e for e in b.edges if e[0] in keep and e[1] in keep)
    highest = b.highest if b.highest in keep else None
    return CrystalGraph(verts, edges, highest)


def component_of(b: CrystalGraph, weight) -> CrystalGraph:
    """Undirected connected component of the unique vertex of the given weight."""
    weight = tuple(weight)
    matches = [v for v in b.vertices if v.weight() == weight]
    if len(matches) != 1:
        raise ValueError("%d vertices of weight %r" % (len(matches), weight))
    adj = collections.defaultdict(list)
    for u, v, _ in b.edges:
        adj[u].append(v)
        adj[v].append(u)
    keep = {matches[0]}
    queue = collections.deque(matches)
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in keep:
                keep.add(v)
                queue.append(v)
    verts = tuple(v for v in b.vertices if v in keep)
    edges = tuple(e for e in b.edges if e[0] in keep)
    highest = b.highest if b.highest in keep else None
    return CrystalGraph(verts, edges, highest)


def filter_arrows(b: CrystalGraph, nodes) -> CrystalGraph:
    nodes = set(nodes)
    return CrystalGraph(b.vertices,
                        tuple(e for e in b.edges if e[2] in nodes),
                        b.highest)


def weight_graph(b: CrystalGraph):
    """Collapse the graph to the weight level: vertices become the distinct
    weights (multiplicities dropped), edges the distinct triples
    (source weight, target weight, label).

    This is the bullet-diagram view, useful for eyeballing small examples.
    It is a lossy projection, not a crystal: two vertices of equal weight
    are merged, so string lengths and the weight rule for eps/phi are not
    preserved."""
    weights = tuple(sorted({v.weight() for v in b.vertices}))
    edges = tuple(sorted({(u.weight(), v.weight(), i) for u, v, i in b.edges}))
    return weights, edges


@dataclass(frozen=True)
class DecompositionPiece:
    weight: tuple       # source weight restricted to the kept nodes
    size: int           # vertices in each component
    count: int          # number of such components


def crystal_decomposition(b: CrystalGraph, nodes):
    """Split the graph along arrows labeled by ``nodes`` and report each
    component by the weight of its unique source (restricted to the nodes),
    its vertex count, and its multiplicity."""
    nodes = tuple(sorted(set(nodes)))
    fb = filter_arrows(b, nodes)
    adj = collections.defaultdict(list)
    incoming = collections.defaultdict(int)
    for u, v, _ in fb.edges:
        adj[u].append(v)
        adj[v].append(u)
        incoming[v] += 1
    remaining = set(fb.vertices)
    pieces = collections.Counter()
    while remaining:
        start = next(iter(remaining))
        comp = {start}
        queue = collections.deque([start])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if v not in comp:
                    comp.add(v)
                    queue.append(v)
        remaining -= comp
        sources = [v for v in comp if incoming[v] == 0]
        if len(sources) != 1:
            raise ValueError("component with %d sources" % len(sources))
        wt = sources[0].weight()
        restricted = tuple(wt[i - 1] for i in nodes)
        pieces[(restricted, len(comp))] += 1
    return tuple(DecompositionPiece(w, s, c)
                 for (w, s), c in sorted(pieces.items()))


def to_dot(b: CrystalGraph) -> str:
    index = {v: pos for pos, v in enumerate(b.vertices)}
    lines = ["digraph crystal {"]
    for v, pos in index.items():
        lines.append('  v%d [label="%s"];' % (pos, str(v.weight())))
    for u, v, i in b.edges:
        lines.append('  v%d -> v%d [label="%d"];' % (index[u], index[v], i))
    lines.append("}")
    return "\n".join(lines) + "\n"
