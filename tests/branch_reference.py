"""Reference copy of the earlier ``demazure_operator`` and ``g0_branch``,
kept as a differential oracle for the string-walk operator and the branching
on per-weight integer coordinates in ``demazure.characters``.  Test use only.

The three functions below are the earlier module's, unchanged.  The
character and record types, ``parabolic_character`` and the term budget are
imported from the package, so old and new results compare with ``==``.
"""

from __future__ import annotations

from demazure.characters import (_TERM_BUDGET, BranchRecord, GradedCharacter,
                                 parabolic_character)
from demazure.rootdata import RootSystem


def demazure_operator(rs: RootSystem, i: int, char: GradedCharacter) -> GradedCharacter:
    if not 0 <= i <= rs.rank:
        raise ValueError("node %r out of range" % (i,))
    # finite part and grade drop of alpha_i; alpha_0 = delta - theta
    if i == 0:
        alpha_w, grade_drop = tuple(-t for t in rs.theta_weight), 1
    else:
        alpha_w, grade_drop = tuple(row[i - 1] for row in rs.cartan), 0
    out = {}
    emitted = 0
    for (fin, lvl, grade), mult in char.terms.items():
        m = lvl - rs.pairing(fin, rs.theta) if i == 0 else fin[i - 1]
        # j steps down the alpha_i string; m == -1 contributes nothing
        if m >= 0:
            js, sign = range(m + 1), 1
        else:
            js, sign = range(-1, m, -1), -1
        emitted += len(js)
        if emitted > _TERM_BUDGET:
            raise RuntimeError("character budget exceeded: %d terms" % emitted)
        for j in js:
            key = (tuple(f - j * a for f, a in zip(fin, alpha_w)), lvl,
                   grade - j * grade_drop)
            out[key] = out.get(key, 0) + sign * mult
    return GradedCharacter(out)


def _above(rs: RootSystem, nodeset, upper, lower):
    """True if upper - lower is a nonzero Z>=0 combination of the simple
    roots indexed by nodeset."""
    diff = tuple(u - l for u, l in zip(upper, lower))
    if all(v == 0 for v in diff):
        return False
    coords = rs.root_coordinates(diff)
    for pos, c in enumerate(coords, start=1):
        if pos in nodeset:
            if c.denominator != 1 or c < 0:
                return False
        elif c != 0:
            return False
    return True


def g0_branch(rs: RootSystem, char: GradedCharacter, nodes):
    """Decompose each grade slice of ``char`` under the sub-root-system on
    ``nodes`` by repeatedly peeling the irreducible generated by a maximal
    weight.  Raises ValueError if a slice is not a nonnegative sum of
    parabolic irreducible characters on those nodes.
    """
    nodes = tuple(sorted({rs.check_node(i) for i in nodes}))
    nodeset = set(nodes)
    records = []
    slices = {}
    for (fin, lvl, grade), c in char.terms.items():
        slices.setdefault(grade, {})[(fin, lvl)] = c
    for grade in sorted(slices):
        remaining = slices[grade]
        while remaining:
            top = None
            for fin, lvl in sorted(remaining, reverse=True):
                rivals = (o for o in remaining if o[1] == lvl and o[0] != fin)
                if not any(_above(rs, nodeset, ofin, fin) for ofin, _ in rivals):
                    top = (fin, lvl)
                    break
            fin, lvl = top
            mult = remaining[top]
            if mult < 0:
                raise ValueError("negative multiplicity at %r grade %d" % (fin, grade))
            irrep = parabolic_character(rs, fin, nodes, level=lvl, grade=grade)
            for (f2, l2, _), c in irrep.terms.items():
                left = remaining.get((f2, l2), 0) - mult * c
                if left < 0:
                    raise ValueError("slice at grade %d is not a nonnegative "
                                     "combination on nodes %r" % (grade, nodes))
                if left:
                    remaining[(f2, l2)] = left
                else:
                    remaining.pop((f2, l2), None)
            records.append(BranchRecord(fin, lvl, grade, mult, irrep.dimension()))
    return tuple(records)
