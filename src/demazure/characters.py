"""Graded characters, Demazure operators and g0 branching.

A character is a finite Z-linear combination of affine weights, stored as a
dict mapping (finite, level, grade) to an integer multiplicity.  ``finite``
is a tuple of fundamental-weight coordinates, ``level`` the central charge,
and ``grade`` the delta-coefficient measured so that the cyclic generator of
a module sits in grade 0.  Lowering by the affine simple root alpha_0 adds
theta to the finite part and drops the grade by one; for the characters
produced by ``demazure_character`` every grade is nonnegative and the
generating weight carries multiplicity 1.

``demazure_operator(rs, i, c)`` applies

    D_i(e^lam) = (e^lam - e^{s_i lam - alpha_i}) / (1 - e^{-alpha_i})

termwise, which for pairing m = lam(h_i) works out to

    m >= 0 : e^lam + e^{lam - alpha_i} + ... + e^{lam - m alpha_i}
    m = -1 : 0
    m <= -2: -(e^{lam + alpha_i} + ... + e^{lam - (m+1) alpha_i})

The operators are linear, idempotent, and satisfy the braid relations, so
compositions along reduced words depend only on the Weyl group element.
Every character is D along one dominance walk's word.

Inside the module a character travels packed (``_pack``, ``_decode``), so a
product of terms is a sum of ints (``_product``).  Every operator runs in one
loop, ``_apply_word``, which stops a character past ``_TERM_BUDGET`` output
terms; one application stops before its strings would emit more than that.
``g0_branch`` sums signs by Weyl's character formula; only a failing slice
peels characters.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from itertools import compress, count, takewhile
from math import prod
from operator import add, ge, lshift, mul, sub
from struct import iter_unpack
from threading import Lock

from .admissibility import AdmissibilityReport, is_r_admissible
from .rootdata import RootSystem, _fill
from .weights import AffineWeight, _affine_node, _walk, dominance_algorithm

_TERM_BUDGET = 3 * 10**5  # output terms summed over one character's operators
_MEMO_TERMS = 1 << 16  # terms the certificate memo keeps, summed over its characters


class GradedCharacter:
    """Z-linear combination of affine weights; zero terms are dropped."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {(tuple(fin), lvl, grade): mult
                      for (fin, lvl, grade), mult in (terms or {}).items() if mult}

    @classmethod
    def _adopt(cls, terms):
        """Wrap a finished dict, uncopied: tuple keys, no zero multiplicity."""
        char = object.__new__(cls)
        char.terms = terms
        return char

    @classmethod
    def from_weight(cls, finite, level, grade=0):
        return cls({(tuple(finite), level, grade): 1})

    def coefficient(self, finite, level, grade):
        return self.terms.get((tuple(finite), level, grade), 0)

    def dimension(self):
        return sum(self.terms.values())

    def sorted_terms(self):
        return tuple(sorted(self.terms.items(),
                            key=lambda kv: (kv[0][2], kv[0][0], kv[0][1])))

    def scale(self, c):
        return GradedCharacter._adopt({key: c * m for key, m in self.terms.items() if c})

    def __add__(self, other):
        out = dict(self.terms)
        for key, mult in other.terms.items():
            out[key] = out.get(key, 0) + mult
        return GradedCharacter._adopt({key: mult for key, mult in out.items() if mult})

    def __sub__(self, other):
        return self + other.scale(-1)

    def tensor(self, other):
        """Convolution: finite parts, levels and grades all add (``_product``)."""
        if not (self.terms and other.terms):
            return GradedCharacter._adopt({})
        ranks = {len(f) for f, _, _ in self.terms} | {len(f) for f, _, _ in other.terms}
        if len(ranks) > 1:
            raise ValueError("tensor of characters of different ranks %r" % sorted(ranks))
        for term, mult in (*self.terms.items(), *other.terms.items()):
            _check_term(term, mult)
        n = ranks.pop()
        return _decode(_product([_pack(self.terms), _pack(other.terms)], n), n)

    def __eq__(self, other):
        return isinstance(other, GradedCharacter) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return "GradedCharacter(<%d terms, dim %d>)" % (len(self.terms),
                                                        self.dimension())


def _check_term(term, mult) -> None:
    """ValueError unless the term's coordinates, level, grade and mult are of type int: no bool."""
    if not all(type(c) is int for c in (*term[0], *term[1:], mult)):
        raise ValueError("term %r with multiplicity %r has an entry that is not an int"
                         % (term, mult))


def _width(reach: int) -> int:
    """Bits per field for |fields| <= reach: 32, or the first doubling that holds them."""
    return max(32, 1 << reach.bit_length().bit_length())


def _pack(terms, width: int = 32, spare: int = 0):
    """{(finite, level, grade): value} as a packed character (width, reach,
    {key: value}) in order: key = sum(field << j * width) over the signed
    fields (finite, grade, level), |field| <= reach, and width is ``width``
    or the narrowest wider one with room for ``spare`` more."""
    reach = max((abs(c) for fin, lvl, grade in terms for c in (*fin, lvl, grade)), default=0)
    width = max(width, _width(reach + spare))
    return width, reach, {sum(map(lshift, (*fin, grade, lvl), count(0, width))): value
                          for (fin, lvl, grade), value in terms.items()}


def _decode(packed, n: int) -> GradedCharacter:
    """A packed character of rank n, in order.  Adding half of each field's
    range and xoring it back leaves each field's two's complement in its own
    bytes: one ``struct`` unpack reads fields up to 64 bits; wider ones shift and mask."""
    width, _, terms = packed
    half, mask = 1 << width - 1, (1 << width) - 1
    bias = ((1 << (n + 2) * width) - 1) // mask * half  # half in every field
    if width <= 64:
        size = (n + 2) * width // 8
        rows = iter_unpack("<%d%s" % (n + 2, "iq"[width // 64]), b"".join(
            [(key + bias ^ bias).to_bytes(size, "little") for key in terms]))
    else:
        shifts = range(0, (n + 2) * width, width)
        rows = (tuple([(key + bias >> s & mask) - half for s in shifts]) for key in terms)
    return GradedCharacter._adopt({(f[:n], f[n + 1], f[n]): value
                                   for f, value in zip(rows, terms.values())})


def demazure_operator(rs: RootSystem, i: int, char: GradedCharacter) -> GradedCharacter:
    """D_i applied to ``char``, i in 0..rank: pack, one letter, decode."""
    return _decode(_apply_word(rs, (i,), char), rs.rank)


def _apply_word(rs: RootSystem, word, char: GradedCharacter):
    """Apply D_i for each i of word, first letter first, within _TERM_BUDGET
    terms, to char packed with its pairing with h_0 as a top field and every
    field biased: row i of ``rs._alphas``, packed, is the step of D_i.  Each
    emitted term is at most budget steps of alpha_i from a term the letter was
    applied to, so no field overflows, and reach grows by at most one step
    per emitted term."""
    n, word, budget = rs.rank, tuple(word), _TERM_BUDGET
    for i in word:
        _affine_node(rs, i)
    theta_co, rows = rs.coroot_vector(rs.theta), {}
    for term, mult in char.terms.items():
        fin, lvl, grade = term
        fin = fin if len(fin) == n else rs.check_weight(fin)  # raises ValueError
        _check_term(term, mult)
        # _pack reads a key (a, b, c) as fields a, c, b: fin, grade, level, h_0 pairing
        rows[((*fin, grade), lvl - sum(map(mul, fin, theta_co)), lvl)] = mult
    top = max(abs(c) for alpha in rs._alphas for c in alpha)
    width, reach, terms = _pack(rows, spare=(len(word) + 1) * top * budget)
    at0, half, mask = (n + 2) * width, 1 << width - 1, (1 << width) - 1
    bias = ((1 << at0 + width) - 1) // mask * half  # half in every field
    terms, total, spread = {key + bias: mult for key, mult in terms.items()}, 0, 0
    for i in word:
        alpha = rs._alphas[i]
        [step] = _pack({(alpha[:n + 1], alpha[n + 1], 0): 0}, width)[2]
        out, emitted, down, at = {}, 0, -step, (i - 1) * width if i else at0
        get = out.get
        for key, mult in terms.items():
            # pairing m = field - half: walk m + 1 terms down from lam, or
            # -m - 1 up from lam + alpha_i; m == -1 adds nothing
            if (field := key >> at & mask) >= half:
                length, stride = field - half + 1, down
            else:
                length, stride, key, mult = half - 1 - field, step, key + step, -mult
            emitted += length
            if emitted > budget:
                raise RuntimeError("character budget exceeded: %d terms" % emitted)
            for _ in range(length):
                out[key] = get(key, 0) + mult
                key += stride
        terms, spread = {key: c for key, c in out.items() if c}, spread + emitted
        total += len(terms)
        if total > budget:
            raise RuntimeError("character budget exceeded: %d terms" % total)
    keep = (1 << at0) - 1  # drops the h_0 field
    return width, reach + top * spread, {(key & keep) - (bias & keep): c
                                         for key, c in terms.items()}


def demazure_character(rs: RootSystem, mu, k: int, *, pick=None) -> GradedCharacter:
    """Graded character of the module generated from weight ``mu`` at level ``k``.

    The dominant representative and reflection word come from the dominance
    walk; the operators are applied along the word so that the last one
    applied corresponds to the first reflection of the walk.
    """
    return _decode(_character(rs, mu, k, pick), rs.rank)


def _character(rs: RootSystem, mu, k: int, pick=None):
    """demazure_character packed, its normalisation and positivity checked on
    the keys.  Every term has level k, so its grade is negative exactly when
    its key lies below k in the level field less half of a grade unit."""
    mu, n = tuple(mu), rs.rank
    lam, word = dominance_algorithm(rs, AffineWeight(mu, k, 0), pick=pick)
    packed = width, _, terms = _apply_word(
        rs, reversed(word), GradedCharacter.from_weight(lam.finite, k, lam.degree))
    [generator] = _pack({(mu, k, 0): 0}, width)[2]
    if (terms.get(generator) != 1 or min(terms) < (k << (n + 1) * width) - (1 << n * width - 1)
            or min(terms.values()) <= 0):
        raise RuntimeError("character of %r at level %d is not normalised and positive"
                           % (mu, k))
    return packed


def parabolic_character(rs: RootSystem, finite, nodes, *, level=0, grade=0) -> GradedCharacter:
    """Character of the irreducible module with highest weight ``finite``
    for the sub-root-system generated by ``nodes``.

    D along the walk of -finite to the dominant chamber of the nodes, first
    letter first: the word is reduced for the shortest u with u(finite) =
    w_J(finite), and D_u e^finite = D_{w_J} e^finite since D_v fixes
    e^finite when v fixes finite.
    """
    nodes = tuple(sorted({rs.check_node(i) for i in nodes}))
    finite = rs.check_weight(finite)
    if any(finite[i - 1] < 0 for i in nodes):
        raise ValueError("weight %r not dominant on nodes %r" % (finite, nodes))
    _, word = _walk(tuple(-c for c in finite), rs._alphas, nodes)
    return _decode(_apply_word(rs, word, GradedCharacter.from_weight(finite, level, grade)),
                   rs.rank)


def finite_character(rs: RootSystem, finite) -> GradedCharacter:
    return parabolic_character(rs, finite, range(1, rs.rank + 1))


@dataclass(frozen=True)
class BranchRecord:
    finite: tuple
    level: int
    grade: int
    multiplicity: int
    dimension: int


def _peel_order(remaining, nodes, cols, norm):
    """The keys of ``remaining`` in peeling order; the caller removes each
    before asking for the next.  o lies above w only if they share the level,
    the off-node coordinates and the on-node residues mod N; a group lists
    (on-node height, on-node quotients by N, weight), highest first."""
    place, groups = {}, {}
    for key in remaining:
        scaled = [sum(map(mul, key[0], col)) for col in cols]
        on = tuple(scaled[i - 1] // norm for i in nodes)
        for i in nodes:
            scaled[i - 1] %= norm
        group = groups.setdefault((key[1], tuple(scaled)), [])
        group.append((sum(on), on, key))
        place[key] = (group[-1], group)
    for group in groups.values():
        group.sort(reverse=True)
    order = sorted(remaining, reverse=True)
    while remaining:
        for top in order:
            if top in remaining:
                (height, on, _), group = place[top]
                rivals = takewhile(lambda entry: entry[0] > height, group)
                if not any(o in remaining and all(map(ge, q, on)) for _, q, o in rivals):
                    break
        yield top


def g0_branch(rs: RootSystem, char: GradedCharacter, nodes):
    """Decompose each grade slice of ``char`` under the sub-root-system on
    ``nodes``; ValueError unless it is a nonnegative sum of irreducibles.  By
    Weyl's character formula, with rho_J the sum of the fundamental weights on
    the nodes, a term m e^mu adds sign(w) m to lam if w in W_J takes mu + rho_J
    to lam + rho_J, regular and dominant on the nodes; a slice passes when it
    is W_J-invariant and no sum is negative, and Weyl's dimension formula
    gives the dimensions.  Records run by grade, then in peeling order: the
    first unpeeled lam in descending ``(finite, level)`` order that none lies
    above (o - lam a nonzero Z>=0 sum of simple roots on the nodes, one level).
    A finite weight's mirrors s_i(mu), balance step and walk's end are found when it
    first turns up, for its terms in every grade and level, and kept for the call
    only.  A failing slice is peeled, subtracting irreducibles, to say where."""
    nodes = tuple(sorted({rs.check_node(i) for i in nodes}))
    # column i: N times the i-th simple-root coordinate of each fundamental weight
    rows = [rs._scaled_coordinates(tuple(int(i == j) for i in range(rs.rank)))
            for j in range(rs.rank)]
    norm, cols = rows[0][1], tuple(zip(*(row for row, _ in rows)))
    rho = tuple(int(i in nodes) for i in range(1, rs.rank + 1))
    alphas = [(i - 1, rs._alphas[i]) for i in nodes]
    levi = [not any(c for c, on in zip(root.coords, rho) if not on)  # roots on the nodes
            for root in rs.positive_roots]
    rho_dim = prod(compress(rs.pairings(rho), levi))
    records, slices, known = [], {}, {}
    for (fin, lvl, grade), c in char.terms.items():
        fin = fin if len(fin) == rs.rank else rs.check_weight(fin)  # raises ValueError
        slices.setdefault(grade, {})[(fin, lvl)] = c
    for grade in sorted(slices):
        terms, mults, invariant, balance = slices[grade], {}, True, 0
        for (fin, lvl), m in terms.items():
            if (seen := known.get(fin)) is None:
                step, mirrors = 0, []
                for i, alpha in alphas:  # s_i pairs the terms of pairings p > 0 and -p
                    if (p := fin[i]) > 0:
                        step += 1
                        mirrors.append(tuple([a - p * b for a, b in zip(fin, alpha)]))
                    elif p:
                        step -= 1
                # not weights._walk, which neither stops at a zero pairing nor keeps a sign
                v, sign, end = list(map(add, fin, rho)), 1, None
                while True:  # into the nodes' dominant chamber; a zero pairing: singular
                    for i, alpha in alphas:
                        if (p := v[i]) <= 0:
                            break
                    else:
                        end = tuple(map(sub, v, rho)), sign
                        break
                    if not p:
                        break
                    v, sign = [a - p * b for a, b in zip(v, alpha)], -sign
                seen = known[fin] = step, mirrors, end
            step, mirrors, end = seen
            balance += step
            for f2 in mirrors:
                invariant &= terms.get((f2, lvl)) == m
            if end:
                key = (end[0], lvl)
                mults[key] = mults.get(key, 0) + end[1] * m
        if not invariant or balance or any(c < 0 for c in mults.values()):
            for fin, lvl in _peel_order(terms, nodes, cols, norm):
                if (mult := terms[(fin, lvl)]) < 0:
                    raise ValueError("negative multiplicity at %r grade %d" % (fin, grade))
                for (f2, _, _), c in parabolic_character(rs, fin, nodes).terms.items():
                    if (left := terms.get((f2, lvl), 0) - mult * c) < 0:
                        raise ValueError("slice at grade %d is not a nonnegative "
                                         "combination on nodes %r" % (grade, nodes))
                    terms[(f2, lvl)] = left
                    if not left:
                        del terms[(f2, lvl)]
            raise RuntimeError("slice at grade %d failed the check but peeled" % grade)
        mults = {key: c for key, c in mults.items() if c}
        for fin, lvl in _peel_order(mults, nodes, cols, norm):
            dim = prod(compress(rs.pairings(map(add, fin, rho)), levi)) // rho_dim
            records.append(BranchRecord(fin, lvl, grade, mults.pop((fin, lvl)), dim))
    return tuple(records)


@dataclass(frozen=True)
class EmbeddingCertificate:
    mu: tuple
    split: tuple
    r: int
    certified: bool
    report: AdmissibilityReport
    failures: tuple  # (finite, grade, lhs multiplicity, rhs multiplicity)
    lhs: GradedCharacter
    rhs: GradedCharacter

    @property
    def k(self):
        return len(self.split)

    @property
    def split_admissible(self):
        return self.report.admissible

    def verdict(self):
        return "Certified" if self.certified else "Violation"


_memo, _memo_lock = OrderedDict(), Lock()  # (rs, mu, k) -> packed, oldest use first
_memo_terms = 0  # terms held in _memo


def _stored(rs: RootSystem, mu, k: int):
    """_character(rs, mu, k), kept up to _MEMO_TERMS terms in all; read only."""
    global _memo_terms
    key = (rs, mu, k)
    with _memo_lock:
        if (packed := _memo.pop(key, None)) is None:
            packed = _character(rs, mu, k)
            if len(packed[2]) > _MEMO_TERMS:
                return packed
            _memo_terms += len(packed[2])
            while _memo_terms > _MEMO_TERMS:
                _memo_terms -= len(_memo.popitem(last=False)[1][2])
        _memo[key] = packed
    return packed


def _product(factors, n: int, width: int = 32):
    """The one product loop, over packed characters of rank n, at ``width`` or
    the narrowest wider width that holds the sum of their reaches; a factor of
    another width is re-packed.  The factors multiply left to right, the terms
    so far outer and the factor's inner, as a loop over term tuples does, and
    zero sums drop after each factor."""
    reach = sum(r for _, r, _ in factors)
    width = max(width, _width(reach))
    acc, *rest = [terms if w == width else _pack(_decode((w, r, terms), n).terms, width)[2]
                  for w, r, terms in factors]
    for terms in rest:
        out, pairs = {}, list(terms.items())
        get = out.get
        for key, c in acc.items():
            for step, m in pairs:
                term = key + step
                out[term] = get(term, 0) + c * m
        acc = {key: c for key, c in out.items() if c}
    return width, reach, acc


def embedding_certificate(rs: RootSystem, mu, split, r: int) -> EmbeddingCertificate:
    """Coefficientwise comparison backing the character containment

        char(mu, r*k)  <=  char(mu_1, r) * ... * char(mu_k, r)

    for a splitting mu = mu_1 + ... + mu_k.  Both extremal coefficients at
    (mu, grade 0) must equal 1.  ``report`` is is_r_admissible(rs, mu, split,
    r), always computed here; the comparison runs whatever its verdict, so
    an inadmissible split can still be probed for violations.  ``rhs``
    multiplies the parts in split order, ``failures`` follow
    ``lhs.sorted_terms()``, and both characters are fresh objects.
    """
    mu = tuple(mu)
    split = tuple(tuple(p) for p in split)
    report = is_r_admissible(rs, mu, split, r)
    n, level = rs.rank, r * len(split)
    lhs = _stored(rs, mu, level)
    width, reach, rhs = _product([_stored(rs, part, r) for part in split], n, lhs[0])
    lhs, get = _product([lhs], n, width)[2], rhs.get
    rhs_char = _decode((width, reach, rhs), n)  # lhs takes its keys, decoding only the rest
    names = dict(zip(rhs, rhs_char.terms))
    if missing := {key: None for key in lhs if key not in names}:
        names.update(zip(missing, _decode((width, reach, missing), n).terms))
    failures = sorted(((names[key][0], names[key][2], mult, have) for key, mult in lhs.items()
                       if mult > (have := get(key, 0))), key=lambda f: (f[1], f[0]))
    [extremal] = _pack({(mu, level, 0): 0}, width)[2]
    if (extremal := (lhs.get(extremal, 0), get(extremal, 0))) != (1, 1):
        failures.append((mu, 0) + extremal)
    lhs = GradedCharacter._adopt({names[key]: mult for key, mult in lhs.items()})
    return _fill(EmbeddingCertificate, mu=mu, split=split, r=r, certified=not failures,
                 report=report, failures=tuple(failures), lhs=lhs, rhs=rhs_char)
