"""Counting irreducibles through twisted extended quotients.

For the crossed product O(T) x| C[W, cocycle], the irreducibles match
pairs (torus point, projective irrep of the stabilizer).  The number of
projective irreps of a finite group is the number of cocycle-regular
conjugacy classes, which we cross-check against the dimension of the
centre of the explicitly constructed twisted group algebra.
"""

from heckealg import (Cocycle, ExtendedGroup, FiniteGroup, build_classical,
                      count_twisted_irreps, extended_quotient_count,
                      twisted_algebra_center_dim)
from heckealg.root_data import empty_datum
from heckealg.weyl import RGroup, identity_matrix

# 1. plain Weyl group counting: W(B2) on its order-2 points
b2 = build_classical("B", 2)
g = ExtendedGroup(b2)
coc = Cocycle.trivial(("e",))
pts = [(i, j) for i in range(2) for j in range(2)]
total, orbits = extended_quotient_count(g, coc, 2, pts)
print("W(B2) at order-2 points: total", total)
for o in orbits:
    print("   rep %-8r orbit %d  |stab| %2d  count %d"
          % (list(o.representative), o.orbit_size,
             o.stabilizer_order, o.count))
print()

# 2. a genuinely twisted count: (Z/2)^2 with the alternating cocycle has
#    a single projective irreducible (of dimension 2)
lbls = ("e", "a", "b", "ab")
sets = {"e": frozenset(), "a": frozenset("a"), "b": frozenset("b"),
        "ab": frozenset("ab")}
rev = {v: k for k, v in sets.items()}
table = {(x, y): rev[sets[x] ^ sets[y]] for x in lbls for y in lbls}
rg = RGroup(lbls, {l: identity_matrix(1) for l in lbls}, table)
gg = ExtendedGroup(empty_datum(1), rg)
alt = Cocycle(lbls, {(x, y): (-1) ** ((1 if "b" in x else 0) *
                                      (1 if "a" in y else 0))
                     for x in lbls for y in lbls})
fg = FiniteGroup.from_extended(gg, cocycle=alt)
print("(Z/2)^2, alternating cocycle:")
print("   regular-class count  :", count_twisted_irreps(fg))
print("   centre dimension     :", twisted_algebra_center_dim(fg))
print()

# 3. the cocycle changes the extended quotient: same torus, same group,
#    different counts
triv = FiniteGroup.from_extended(gg, cocycle=Cocycle.trivial(lbls))
t_triv, _ = extended_quotient_count(gg, Cocycle.trivial(lbls), 2, [(0,)])
t_alt, _ = extended_quotient_count(gg, alt, 2, [(0,)])
print("extended quotient at the identity point: trivial cocycle ->",
      t_triv, ", alternating cocycle ->", t_alt)
