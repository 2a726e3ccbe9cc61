"""Primitive elements: the minimal polynomial of a sum of square roots.

The sum sqrt(f_1) + ... + sqrt(f_m) of independent square roots generates
the whole compositum field; its minimal polynomial has degree 2^m and is
produced by iterated resultants

    P_(k+1)(z) = Res_y(P_k(z - y), y^2 - f_(k+1)),   P_1 = z^2 - f_1.

Dependent radicands are first reduced to independent generators on the
square-class lattice, keeping their own constants (the class of x*(x-4)
relative to x is x-4, and 4x+1 stays 4x+1 rather than its monic x+1/4).
"""

from sqrat import (
    build_branch_table,
    minpoly_multiquadratic,
    parse_expr,
    reduced_generators_scaled,
    zp_to_str,
)

family = [parse_expr(t) for t in ("x", "4*x+1", "x^2-4*x")]
table = build_branch_table(family)
generators = reduced_generators_scaled(table)
print("family:   ", ", ".join(str(f) for f in family))
print("generators:", ", ".join(str(g) for g in generators))

mp = minpoly_multiquadratic(generators)
print(f"degree {mp.degree} minimal polynomial of the sum of square roots:")
print(" ", zp_to_str(mp.poly))
print()

# the quartic for two pairwise products of linear factors
pair = [parse_expr("x^2-x"), parse_expr("x^2-2*x")]
mp = minpoly_multiquadratic(pair)
print("for sqrt(x^2-x) + sqrt(x^2-2x):")
print(" ", zp_to_str(mp.poly))
print()

# rational radicands are normalized by clearing denominators: the roots of
# z^2 - (x-1)/x scale by x, giving the same square class (x-1)*x
mp = minpoly_multiquadratic([parse_expr("(x-1)/x")])
print("for sqrt((x-1)/x), after clearing the denominator:")
print(" ", zp_to_str(mp.poly))
