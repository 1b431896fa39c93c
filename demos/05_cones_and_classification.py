"""Weight cones, minimal coset representatives and module classification.

The analytic classes of a module are read off its real-split weight
exponents: tempered means all weights lie in the closed antidominant
obtuse cone (nonpositive combinations of positive coroots), discrete
series means the interior, essentially discrete series the interior
modulo the central subspace.  Minimal coset representatives of the
stabilizer of a torus point glue the cones of the subsystem to the
cones of the full system.
"""

from fractions import Fraction

from heckealg import build_classical, classify, cone_classify, is_distinguished
from heckealg.weyl import ExtendedGroup, mat_apply, min_coset_reps, \
    stabilizer_of_point

b2 = build_classical("B", 2)

print("cone membership in B2:")
for x in ([Fraction(0), Fraction(0)],
          [Fraction(-2), Fraction(-1)],
          [Fraction(1), Fraction(0)]):
    m = cone_classify(b2, x)
    print("   x = %-12s -> %s" % ([str(v) for v in x], sorted(m.labels())))
print()

print("module classification from weight exponents:")
zero = [Fraction(0), Fraction(0)]
deep = [Fraction(-2), Fraction(-1)]
print("   all-zero weights   :", classify([zero], b2))
print("   deep negative      :", classify([deep], b2))
print("   mixed              :", classify([zero, [Fraction(1), Fraction(0)]], b2))
print()

# minimal coset representatives at an order-2 point: the subsystem cone
# is the intersection of the pulled-back ambient cones
group = ExtendedGroup(b2)
stab = stabilizer_of_point(group, (1, 0), 2)
reps = min_coset_reps(group, stab.reflection_part)
print("stabilizer of the order-2 point (1,0): subsystem on",
      sorted(r.vector for r in stab.subsystem.positive_roots))
print("coset representatives:", len(reps))
x = [Fraction(-1), Fraction(-1, 2)]
print("x in subsystem obtuse cone :",
      cone_classify(stab.subsystem, x).antidominant_obtuse)
print("w x in ambient obtuse cone for every representative:",
      all(cone_classify(b2, mat_apply(group.table.action(w), x))
          .antidominant_obtuse for w in reps))
print()

print("distinguished partitions:")
for side, parts in (("Sp", (2, 4)), ("Sp", (2, 2)), ("SO", (1, 3, 5)),
                    ("GL", (4,)), ("GL", (2, 1))):
    print("   %-3s %-10s ->" % (side, parts), is_distinguished(side, parts))
