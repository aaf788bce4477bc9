"""Reference copy of the tuple loop that ``GradedCharacter.tensor`` ran before
products moved to the packed-integer loop ``characters._product``, kept as a
differential oracle.  Test use only.

``tensor`` below is the earlier method's body, unchanged, as a module
function (``self`` and ``other`` are its two operands).  The character type
is imported from the package, so old and new results compare with ``==``.
"""

from __future__ import annotations

from operator import add

from demazure.characters import GradedCharacter


def tensor(self, other):
    """Convolution: finite parts, levels and grades all add."""
    ranks = {len(f) for f, _, _ in self.terms} | {len(f) for f, _, _ in other.terms}
    if self.terms and other.terms and len(ranks) > 1:
        raise ValueError("tensor of characters of different ranks %r" % sorted(ranks))
    out = {}
    for (f1, l1, g1), c1 in self.terms.items():
        for (f2, l2, g2), c2 in other.terms.items():
            key = (tuple(map(add, f1, f2)), l1 + l2, g1 + g2)
            out[key] = out.get(key, 0) + c1 * c2
    return GradedCharacter._adopt({key: c for key, c in out.items() if c})
