"""
Groebner bases, elimination, and annihilator dimensions
=======================================================

The commutative backend exposes the classical ideal toolkit: normal
forms, generator elimination, and degreewise annihilator counts.
"""

import finalg

pres = finalg.parse("""\
algebra witness
char 2
mode commutative
gen x 1
gen y 1
rel x*y
rel x^2 + y^2
""")

# the completed basis picks up the consequence y^3
G = finalg.groebner_basis(pres)
print("groebner basis:")
for poly in G.polys:
    print("  ", pres.format_poly(poly))

# standard monomials of each degree are a vector-space basis of the
# quotient, so their counts are the graded dimensions
print("dims:", [len(finalg.standard_monomials(G, n)) for n in range(6)])

# eliminating y leaves the subring generated by x alone
kept, _ = finalg.eliminate(pres, [pres.gens.index("x")], degree_cap=8)
print("relations among x after eliminating y:",
      [pres.format_poly(g) for g in kept])

# Ann(x) grows as the powers of the maximal ideal die off
ann = finalg.annihilator(G, [pres.parse_poly("x")], max_degree=8)
print("annihilator of x, dims by degree:", list(ann))
