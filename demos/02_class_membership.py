"""Structural classes of weighted constraints, with certificates.

Five classes drive everything downstream:
  degenerate (DG)  products of unary factors: the ED members with no
                   parity link, read off the ED certificate
  ED               unary factors + equality/disequality links
  AF               a degenerate part times binary affine relations
                   through one pivot variable: the ED members with at most
                   one parity component, read off the ED certificate
  IM_opt           unary factors + implication-shaped factors (1,1,L,1), L<1
plus two support predicates (affine, implication-definable).
"""

from fractions import Fraction

from prodcsp import (
    EQ,
    IMPLIES,
    OR,
    XOR,
    binary_witness_search,
    certificate_matches,
    is_af,
    is_degenerate,
    is_ed,
    is_imopt,
    log_expansion,
    make_table,
    memberships,
)

F = Fraction

# A rank-one table factors into unary weights.
rank1 = make_table([2, 4, 3, 6], "RANK1")
cert = is_degenerate(rank1)
print("degenerate factors of", rank1.weights, "->", cert.unary_factors)
print("certificate rebuilds the table:", certificate_matches(cert, rank1))

# EQ is the archetypal ED member; the certificate names the parity link.
print("\nED certificate of EQ:", is_ed(EQ).parity_links)

# AF is read off the ED certificate: one parity component through a pivot
# is AF, two separate components are ED but not AF.
star = is_af(make_table([1, 0, 0, 0, 0, 0, 0, 2], "STAR"))
print(f"\nAF certificate of STAR (x1=x2=x3): pivot x{star.pivot}, relations",
      [(j, sorted(rel)) for j, rel in star.binary_relations])
two_links = EQ.expand(2).expand(2).multiply(EQ.expand(0).expand(0))
print("x1=x2 and x3=x4: ED", is_ed(two_links) is not None,
      "/ AF", is_af(two_links) is not None)

# The binary table (2,1,1,1) is implication-weighted because 2*1 > 1*1.
two = make_table([2, 1, 1, 1], "TWO")
cert = is_imopt(two)
print("\nIM_opt certificate of", two.weights)
print("  unary factors:", cert.unary_factors)
print("  pair factors:", sorted(cert.lambda_pairs))

# Taking logs makes the test visible: the pairwise coefficient of log2 f
# is log2(xw/yz), and membership needs it to be nonnegative.
print("\nlog2 expansion of (2,1,1,1):",
      {tuple(sorted(S)): c for S, c in log_expansion(two).coefficients.items()})
anti = make_table([1, 2, 2, 1], "ANTI")
print("(1,2,2,1) pair coefficient:", log_expansion(anti).pair_coefficient(1, 2),
      "-> member:", is_imopt(anti) is not None)

# The bundled report gathers every verdict at once.
for table in (EQ, XOR, OR, IMPLIES):
    classes, _ = memberships(table)
    print(f"\n{table.name}: {sorted(classes) or 'no classes'}")

# Diagnostics: every binary constraint reachable from a ternary table by
# pinning/linking/permuting, each with a replayable derivation script.
ternary = make_table([1, 1, 1, 1, 1, 1, 1, 0], "ALMOST")
reached = binary_witness_search(ternary)
print(f"\n{len(reached)} distinct binary constraints reachable from {ternary.weights}:")
for script, witness in reached[:4]:
    print("  ", witness.weights, " via ", script.render().replace("\n", "; "))
