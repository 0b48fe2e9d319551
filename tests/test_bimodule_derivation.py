"""The derived bimodule axioms against the hand-written ones.

The checks evaluate each bimodule axiom as one identity of the base law on
the split null extension A x| M, its slots arranged and its sign taken from
the derivation table (bimodules._DERIVATIONS), and the printed PbmVariant
readings as a derived axiom plus one correction term.  The closures of
bimodule_references write the fourteen axioms out by hand with every sign,
and are the reference: at every basis triple of random bimodules over Q,
F_3 and F_5, on mixed-parity bases and modules, each derived axiom must give
the same residual, under each of the four variants, and declare the same
symmetry.
"""

import itertools
import random

import pytest

from superalt import Vector
from bimodule_references import derived_entries, references
from test_compiled_scan import VARIANTS
from test_identity_symmetry import KINDS, random_instances

# (base dims, module dims): the mixed-parity pairs, then four random draws
DIMS = [((1, 2), (1, 1)), ((2, 2), (2, 1)), ((2, 1), (1, 2)), ((1, 1), (1, 1))] + [(None, None)] * 4


def mismatches(m, entries, refs, nonzero):
    """(name, triple) of the first basis triple at which an entry's residual
    differs from its reference's, (name, "perm") where it declares another
    symmetry; adds the names with a nonzero residual somewhere to nonzero."""
    assert [e[0] for e in entries] == [r[0] for r in refs]
    spaces = (m.base.space, m.base.space, m.module)
    bad = []
    for (name, _, fn, *perm), (_, _, ref, *ref_perm) in zip(entries, refs):
        if perm != ref_perm:
            bad.append((name, "perm"))
        for idx in itertools.product(*(s.indices() for s in spaces)):
            pts = tuple((Vector.basis(s, i), s.parity(i)) for s, i in zip(spaces, idx))
            r = ref(pts)
            if fn(pts) != r:
                bad.append((name, idx))
                break
            if not r.is_zero():
                nonzero.add(name)
    return bad


@pytest.mark.parametrize("kind", KINDS, ids=str)
def test_derived_axioms_match_the_hand_written_ones(kind):
    rng = random.Random(37)
    nonzero = set()
    for dims, module_dims in DIMS:
        _, _, alt, pre = random_instances(rng, kind, dims, module_dims)
        assert mismatches(alt, derived_entries(alt), references(alt), nonzero) == []
        for variant in VARIANTS:
            assert mismatches(pre, derived_entries(pre, variant), references(pre, variant),
                              nonzero) == []
    assert nonzero == {"abm1", "abm2", "abm3", "abm4"} | {f"pbm{k}" for k in range(1, 11)}
