"""The super identities against the Grassmann envelope, tuple by tuple.

A superalgebra A satisfies a multilinear super identity iff its Grassmann
envelope G(A) = G_0 (x) A_0 + G_1 (x) A_1 satisfies the identity with every
sign +1 (Kac, "Lie superalgebras", Adv. Math. 26, 1977; Shestakov, "Prime
alternative superalgebras of arbitrary characteristic", Algebra and Logic
36, 1997).  Here G is the Grassmann algebra on four generators, and G(A) is
built as a purely even instance with the product
(g (x) a)(h (x) b) = (-1)^(|a||h|) gh (x) ab and the twist id (x) alpha.

The comparison is made at each basis tuple (a_1, ..., a_k) of A, not only
by verdict: the same law_identities closures are evaluated at the points
eps_s (x) a_s of G(A), eps_s being a fresh generator for an odd slot and 1
for an even one.  Every term of the envelope residual then carries the
product e_U of those generators, so its e_U component must be the super
residual at (a_s) up to one sign, and every other component must vanish.
The closures write no sign on the envelope, all of its points being even,
so a sign written wrong in them shows as a disagreement.  Hom-jordan is
compared under each of its cyclic readings.
"""

import itertools
import random

import pytest

from superalt import (
    JORDAN_CYCLES,
    PRE_LAWS,
    PRODUCT_LAWS,
    QQ,
    EvenBilinear,
    EvenMap,
    HomAlgebra,
    HomPreAlgebra,
    SuperSpace,
    Vector,
    law_identities,
)
from superalt import laws as engine
from test_compiled_scan import rand_bilinear, rand_map

GENERATORS = 4  # enough for the four odd slots of hom-jordan


def wedge(u, v):
    """e_u e_v as (sign, u | v) for the monomials whose generators are the
    bits of u and of v, or None when they share one."""
    if u & v:
        return None
    swaps = sum(1 for i in range(GENERATORS) if u >> i & 1
                for j in range(i) if v >> j & 1)
    return (-1) ** swaps, u | v


class Envelope:
    """The basis (u, i) of G(A), e_u (x) a_i with |u| = |a_i| mod 2, and
    the envelopes of A's tensors and maps on it."""

    def __init__(self, space):
        self.space = space
        self.basis = [(u, i) for i in space.indices() for u in range(1 << GENERATORS)
                      if bin(u).count("1") % 2 == space.parity(i)]
        self.index = {b: n for n, b in enumerate(self.basis)}
        self.even = SuperSpace(QQ, len(self.basis), 0)

    def product(self, t):
        """(g (x) a)(h (x) b) = (-1)^(|a||h|) gh (x) ab."""
        entries = []
        for i, j, k, c in t.sparse_entries():
            for u, v in itertools.product(range(1 << GENERATORS), repeat=2):
                w = wedge(u, v)
                if w is not None and (u, i) in self.index and (v, j) in self.index:
                    sign = w[0] * (-1) ** (self.space.parity(i) * bin(v).count("1"))
                    entries.append((self.index[u, i], self.index[v, j],
                                    self.index[w[1], k], sign * c))
        return EvenBilinear.from_entries(self.even, self.even, self.even, entries)

    def twist(self, alpha):
        """id (x) alpha."""
        return EvenMap.from_entries(self.even, self.even, [
            (self.index[u, i], self.index[u, j], m)
            for i, j, m in alpha.sparse_entries()
            for u in range(1 << GENERATORS) if (u, j) in self.index
        ])

    def point(self, u, i):
        return Vector.basis(self.even, self.index[u, i]), 0

    def component(self, r, u):
        """The e_u component of a residual of G(A), as coordinates over A,
        and whether every other component vanishes."""
        comp = [r.coords[self.index[u, k]] if (u, k) in self.index else 0
                for k in self.space.indices()]
        rest = [c for (w, _), c in zip(self.basis, r.coords) if w != u]
        return tuple(comp), not any(rest)


def disagreements(space, env, identities, env_identities):
    """(name, tuple) of every basis tuple of A at which the envelope residual
    is not e_U (x) (the super residual) up to sign; and how many of the
    tuples have a nonzero super residual."""
    bad, nonzero = [], 0
    points = engine._basis_points(space)
    for (name, arity, fn), (_, _, env_fn) in zip(identities, env_identities):
        for idx in itertools.product(space.indices(), repeat=arity):
            pts = tuple(points[i] for i in idx)
            odd = [s for s, (_, p) in enumerate(pts) if p]
            gens = {s: 1 << g for g, s in enumerate(odd)}
            env_pts = tuple(env.point(gens.get(s, 0), i) for s, i in enumerate(idx))
            r = fn(pts).coords
            comp, clean = env.component(env_fn(env_pts), (1 << len(odd)) - 1)
            if not clean or (comp != r and comp != tuple(-c for c in r)):
                bad.append((name, idx))
            nonzero += any(r)
    return bad, nonzero


def random_pair(rng, dims):
    """A random product instance and pre-instance on one space of dims over Q."""
    s = SuperSpace(QQ, *dims)
    a = HomAlgebra(rand_bilinear(rng, "Q", s, s, s, density=0.6), rand_map(rng, "Q", s, s))
    p = HomPreAlgebra(rand_bilinear(rng, "Q", s, s, s, density=0.6),
                      rand_bilinear(rng, "Q", s, s, s, density=0.6), rand_map(rng, "Q", s, s))
    return a, p


@pytest.mark.parametrize("dims", [(1, 2), (2, 2)], ids=str)
def test_every_identity_agrees_with_its_grassmann_envelope(dims):
    rng = random.Random(37)
    laws = set()  # the (law, cycle) pairs with a nonzero residual on some instance
    for _ in range(3):
        a, p = random_pair(rng, dims)
        env = Envelope(a.space)
        g_a = HomAlgebra(env.product(a.mu), env.twist(a.alpha))
        g_p = HomPreAlgebra(env.product(p.prec), env.product(p.succ), env.twist(p.alpha))
        # hom-jordan under every cyclic reading, each signed by its own cycle
        cases = [(a, g_a, law, cycle) for law in PRODUCT_LAWS
                 for cycle in (JORDAN_CYCLES if law == "hom-jordan" else (None,))]
        cases += [(p, g_p, law, None) for law in PRE_LAWS]
        for inst, g, law, cycle in cases:
            bad, nonzero = disagreements(inst.space, env, law_identities(inst, law, cycle),
                                         law_identities(g, law, cycle))
            assert bad == [], (law, cycle)
            if nonzero:
                laws.add((law, cycle))
    assert laws == {(law, cycle) for _, _, law, cycle in cases}
