"""Constructing and verifying explicit rationalizing substitutions.

A witness for a family of radicands is a single nonconstant substitution
x -> phi(t) such that every radicand becomes a perfect square, together
with the square roots themselves.  Construction is greedy: repeatedly pick
a radicand whose current square class has degree at most 2, kill it with a
linear or conic parametrization, push the substitution through the rest,
and repeat.  On a genus zero family every step keeps the genus at zero,
so the only way to give up there is a conic step that finds no rational
point: the greedy construction is deliberately incomplete, the decision
module stays authoritative, and a genus zero family may still come back
as unknown here.

A conic step tries, in order: a square leading coefficient, a rational
root, a local test, and a bounded point search.  The local test completes
the square and looks for a place where the Hilbert symbol of the conic is
-1, at the real place or at an odd prime that trial division finds.  Such
a place proves that no rational point exists, so the step gives up there
without searching.  The test is one-sided: a conic it passes is searched
exactly as before, and a conic it rejects has no point for the search to
find, so every witness is the same as without it.

Constants are squares over C but not always over Q; such leftovers are
recorded as constant defects on the witness, never silently accepted.

The module also computes the minimal polynomial of the sum of the square
roots of independent generators by iterated resultants with the quadratics
y^2 - f_i, each taken as a norm, with no Sylvester matrix.  Every step of
that tower is even in z, since the sign sums sum(+-sqrt(f_i)) are closed
under negation, so resultants.resultant_tower runs it in w = z^2: the norm
of P(w + F - 2t) with t = z*y and t^2 = w*F is A^2 - w*F*B^2.  It clears
denominators once, with one scale c for all generators, passes integer
rows from step to step with a slot width sized per step, and builds
UPolys only at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Sequence

from .errors import (
    DegenerateSumError,
    DependentGeneratorsError,
    NoRationalPointFoundError,
    WrongDegreeError,
)
from .lattice import _coerce_radicands, build_branch_table, gf2_eliminate
from .poly import (
    PowerTable,
    RatFunc,
    SquareOverQ,
    UPoly,
    fraction_sqrt,
    is_square,
    square_class,
    substitute,
)
from .resultants import (
    ZPoly,
    clear_denominators_monic,
    resultant_tower,
    zp_is_monic,
    zp_is_squarefree_in_z,
)

CONIC_SEARCH_HEIGHT = 100


@dataclass(frozen=True)
class Witness:
    """A rationalizing substitution with one square root per radicand.

    substitute(f_i, phi) equals defects[i] * roots[i]^2 exactly; an entry 1
    in defects means the i-th radicand becomes a square over Q, anything
    else is a non-square rational constant (a square over C only).
    """

    phi: RatFunc
    roots: tuple[RatFunc, ...]
    defects: tuple[Fraction, ...]

    @property
    def has_defects(self) -> bool:
        return any(d != 1 for d in self.defects)


def rationalize_linear(f: RatFunc | UPoly) -> RatFunc:
    """Substitution sending a class-degree-1 radicand to a perfect square.

    With f = c*(x + b)*h^2 the image x -> (t^2 - c*b)/c maps the scaled
    representative c*x + c*b to t^2, hence f itself to a square over Q.
    """
    c, g, _ = square_class(f)
    if g.degree != 1:
        raise WrongDegreeError("squarefree class must have degree 1")
    b = g.coeff(0)
    t2 = UPoly((0, 0, 1))
    return RatFunc(t2 - UPoly.constant(c * b), UPoly.constant(c))


def rationalize_conic(f: RatFunc | UPoly) -> RatFunc:
    """Parametrize a class-degree-2 radicand so it becomes a square over Q.

    Writing the scaled class representative as R = a*x^2 + b*x + c, tries
    in order:

      1. a is a square s^2 in Q: lines through the point at infinity,
         x -> (t^2 - c) / (b - 2 s t);
      2. lines through a rational point (x0, z0) on z^2 = R,
         x -> (x0 t^2 - 2 z0 t + a x0 + b) / (t^2 - a), at (r, 0) when R
         has a rational root r;
      3. otherwise a local test first: a place where the Hilbert symbol
         (a, D) is -1 (_obstructing_place) proves that no point exists;
      4. else the same lines through the first point that a bounded search
         with numerator and denominator heights <= 100 finds.

    Raises NoRationalPointFoundError with the place when step 3 finds one,
    and with place None when the search is exhausted.  Step 3 is one-sided:
    a conic it rejects has no rational point at any height, so the search
    would have failed too, and every conic it passes is searched as before.
    Over C a parametrization always exists; the decision module, not this
    one, is the authority on rationalizability.
    """
    cc, g, _ = square_class(f)
    if g.degree != 2:
        raise WrongDegreeError("squarefree class must have degree 2")
    a = cc
    b = cc * g.coeff(1)
    c = cc * g.coeff(0)

    sub = None
    s = fraction_sqrt(a)
    if s is not None:
        sub = RatFunc(UPoly((-c, 0, 1)), UPoly((b, -2 * s)))
    else:
        p, q = g.coeff(1), g.coeff(0)
        disc_root = fraction_sqrt(p * p - 4 * q)
        if disc_root is not None:
            point = ((-p + disc_root) / 2, Fraction(0))
        else:
            # b^2 - 4ac = a^2 (p^2 - 4q): the same square class
            place = _obstructing_place(a, p * p - 4 * q)
            if place is not None:
                where = "the real place" if place == "inf" else f"p = {place}"
                raise NoRationalPointFoundError(
                    f"the conic has no rational point: its Hilbert symbol "
                    f"is -1 at {where}", place=place)
            point = _search_rational_point(a, b, c)
            if point is None:
                raise NoRationalPointFoundError(
                    f"no rational point of height <= {CONIC_SEARCH_HEIGHT} "
                    "on the conic"
                )
        x0, z0 = point
        sub = RatFunc(UPoly((a * x0 + b, -2 * z0, x0)), UPoly((-a, 0, 1)))
    rep = RatFunc(UPoly((c, b, a)))
    if not isinstance(is_square(substitute(rep, sub)), SquareOverQ):
        raise RuntimeError("conic parametrization failed to square the class")
    return sub


def _obstructing_place(a: Fraction, d: Fraction) -> str | int | None:
    """A place where the Hilbert symbol (a, d) is -1, else None.

    For a and d not squares in Q, z^2 = a x^2 + b x + c with
    d = b^2 - 4ac is Y^2 - a Z^2 = d after completing the square
    (Y = 2ax + b, Z = 2z).  By the easy half of Hasse-Minkowski, a symbol
    -1 at one place proves that it has no rational point.  The test is
    one-sided: it checks the real place, where the symbol is -1 iff a < 0
    and d < 0, and the odd primes of the squarefree kernels of a and d
    that _odd_prime_factors finds.  2 is not checked: by the product
    formula the symbol is -1 at an even number of places, so once every
    other place gives 1, so does 2.  None proves nothing.
    """
    if a < 0 and d < 0:
        return "inf"
    # integers of the same square classes as a and d
    ka = a.numerator * a.denominator
    kd = d.numerator * d.denominator
    fa, fd = _odd_prime_factors(ka), _odd_prime_factors(kd)
    for p in sorted(fa.keys() | fd.keys()):
        alpha, beta = fa.get(p, 0), fd.get(p, 0)
        if alpha % 2 == 0 and beta % 2 == 0:
            continue
        # (a, d)_p is the Legendre symbol of (-1)^(alpha beta) u^beta v^alpha
        # for ka = p^alpha u and kd = p^beta v; Euler's criterion gives it.
        # A p that the trial division of one of them missed stays in its
        # u or v: p is skipped above or w = 0 mod p, so nothing is claimed
        u, v = ka // p ** alpha, kd // p ** beta
        w = (-1) ** (alpha * beta) * u ** (beta % 2) * v ** (alpha % 2)
        if pow(w % p, (p - 1) // 2, p) == p - 1:
            return p
    return None


def _odd_prime_factors(n: int) -> dict[int, int]:
    """Odd primes dividing the nonzero n, with exponents, by trial division.

    Divisors run up to CONIC_SEARCH_HEIGHT^2, which keeps the cost below
    that of the point search the test replaces.  A cofactor left below the
    square of the next divisor is prime and is listed too; a larger one is
    left out, so a prime may be missing but none listed is wrong, and the
    listed exponents are exact.
    """
    n = abs(n)
    n //= n & -n  # the odd part
    found = {}
    bound = CONIC_SEARCH_HEIGHT ** 2
    d = 3
    while d <= bound and d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            found[d] = e
        d += 2
    if 1 < n < d * d:
        found[n] = 1
    return found


def _search_rational_point(a: Fraction, b: Fraction, c: Fraction,
                           height: int = CONIC_SEARCH_HEIGHT):
    """First rational (x0, z0) with z0^2 = a x0^2 + b x0 + c, by height.

    Runs on integers: with a, b, c = A/D, B/D, C/D over a common D and
    x0 = p/q in lowest terms, z0^2 = N / (D q^2) for N = A p^2 + B p q + C q^2,
    a square in Q exactly when N*D is a square integer r^2; then
    z0 = r / (D q).
    """
    den = lcm(a.denominator, b.denominator, c.denominator)
    ia, ib, ic = (v.numerator * (den // v.denominator) for v in (a, b, c))
    for h in range(1, height + 1):
        candidates = [(p, h) for p in range(-h, h + 1)]
        candidates += [(h, q) for q in range(1, h)]
        candidates += [(-h, q) for q in range(1, h)]
        for p, q in candidates:
            if gcd(p, q) != 1:
                continue
            nd = (ia * p * p + ib * p * q + ic * q * q) * den
            if nd >= 0:
                r = isqrt(nd)
                if r * r == nd:
                    return Fraction(p, q), Fraction(r, den * q)
    return None


def greedy_rationalize(radicands: Sequence[RatFunc | UPoly]) -> Witness | None:
    """Sequentially rationalize a family; None means unknown, never a lie.

    Picks the remaining radicand of smallest class degree (ties by index),
    kills it with a linear or conic step, composes the step into the
    accumulated substitution and transforms the rest.

    A step x -> s(t) has degree 2 and makes its target f_i a square, so
    Q(t) = Q(x, sqrt(f_i)): the transformed family generates the same
    compositum, and a genus zero family stays genus zero.  Every class of a
    genus zero family has degree <= 2 (the lemma in the decide module), so
    a smallest class degree above 2 means positive genus, where no witness
    exists, and on genus zero only a conic step that finds no rational
    point gives up.  The working family is the radicands substituted into
    the composed substitution, so once no class is left the roots are read
    off its square classes c * h^2.  A returned witness has been verified
    symbolically.
    """
    rads = _coerce_radicands(radicands)
    phi = RatFunc.x()
    targets = list(rads)
    while True:
        classes = [square_class(g) for g in targets]
        live = [(g.degree, i) for i, (_, g, _) in enumerate(classes)
                if g.degree >= 1]
        if not live:
            break
        d, i = min(live)
        if d > 2:
            return None
        c, g, _ = classes[i]
        rep = g * c  # the step reads only the class of its target
        try:
            step = rationalize_linear(rep) if d == 1 else rationalize_conic(rep)
        except NoRationalPointFoundError:
            return None
        powers = PowerTable(step)
        phi = substitute(phi, step, powers)
        targets = [substitute(g, step, powers) for g in targets]
    roots = []
    defects = []
    for c, _, h in classes:
        root_c = fraction_sqrt(c)
        if root_c is None:
            roots.append(h)
            defects.append(c)
        else:
            roots.append(root_c * h)
            defects.append(Fraction(1))
    witness = Witness(phi=phi, roots=tuple(roots), defects=tuple(defects))
    ok, _ = verify_witness(rads, witness)
    if not ok:
        raise RuntimeError("greedy produced a witness that fails verification")
    return witness


def verify_witness(radicands: Sequence[RatFunc | UPoly],
                   witness: Witness) -> tuple[bool, list[tuple[int, Fraction]]]:
    """Check a witness symbolically.

    Accepted iff for every i the image substitute(f_i, phi) is a constant
    d times roots[i]^2; every d different from 1 is returned as an
    (index, defect) pair, marking the witness as valid over C only.  No
    exceptions: this is a verification result.

    No gcd is taken.  The image is reduced with a monic denominator, and
    so is roots[i]^2, the squares of a reduced numerator and denominator;
    a nonzero constant multiple d * N/D of a reduced N/D with D monic is
    reduced with D monic too.  Such forms are unique, so the image equals
    d * roots[i]^2 exactly when its denominator is D and its numerator is
    d * N, with d the ratio of the leading coefficients.
    """
    rads = _coerce_radicands(radicands)
    if len(rads) != len(witness.roots):
        return False, []
    powers = PowerTable(witness.phi)
    defects: list[tuple[int, Fraction]] = []
    for i, f in enumerate(rads):
        image = substitute(f, witness.phi, powers)
        square = witness.roots[i] ** 2
        if image.den != square.den or not square:
            return False, []
        if image.num == square.num:
            continue
        d = image.num.leading / square.num.leading
        if image.num != square.num * d:
            return False, []
        defects.append((i, d))
    return True, defects


# -- primitive element minimal polynomial ------------------------------------


@dataclass(frozen=True)
class MinPoly:
    """Monic minimal polynomial of sum(sqrt(f_i)) over the generators f_i.

    The generators are the polynomials the minimal polynomial was computed
    from: each input generator with a denominator is replaced by a
    polynomial of the same square class.
    """

    poly: ZPoly
    generators: tuple[RatFunc, ...]

    @property
    def degree(self) -> int:
        return len(self.poly) - 1


def minpoly_multiquadratic(generators: Sequence[RatFunc | UPoly]) -> MinPoly:
    """Iterated-resultant minimal polynomial of the sum of square roots.

    The resultants are taken in w = z^2 on integer rows (resultant_tower).

    Rational generators are first replaced by polynomial ones of the same
    square class by clearing denominators of z^2 - f; the result's
    generators are those polynomials.  Requires the generators' classes to
    be independent in the square-class lattice; the result is monic of
    degree 2^m with roots exactly the sums of the square roots over all
    sign choices, and is rejected if two sign choices collide (a
    degenerate primitive element).

    Independence rules the collision out, so the squarefree check below is
    a certificate that cannot fail.  Independent parity rows mean that no
    nonempty product of the f_i is a constant times a square, so by Kummer
    theory the compositum K = C(x)(sqrt(f_1), ..., sqrt(f_m)) has degree
    2^m over C(x), the function-field case of Besicovitch (1940) for
    square roots of integers.  K is spanned by the 2^m products
    prod_{i in T} sqrt(f_i), T a subset of the indices, so those products
    are a basis, and the sqrt(f_i) (|T| = 1) are linearly independent over
    C(x).  Two sign choices e != e' with sum(e_i*sqrt(f_i)) =
    sum(e'_i*sqrt(f_i)) would give sum over {i: e_i != e'_i} of
    2*e_i*sqrt(f_i) = 0, a nontrivial relation.  So the 2^m sign sums are
    distinct, p has 2^m distinct roots and DegenerateSumError is not
    raised.
    """
    rads = _coerce_radicands(generators)
    polys: list[UPoly] = []
    for f in rads:
        if f.den.is_one:
            polys.append(f.num)
        else:
            cleared, _ = clear_denominators_monic([-f, RatFunc(0), RatFunc(1)])
            polys.append(-cleared[0])
    _, dependent = gf2_eliminate(build_branch_table(polys))
    if dependent is not None:
        relation = [j for j in range(len(polys)) if dependent & (1 << j)]
        raise DependentGeneratorsError(
            "generators are dependent modulo squares"
            f" (relation among indices {relation})",
            relation=relation,
        )
    p = resultant_tower(polys)
    if not zp_is_monic(p) or len(p) - 1 != 2 ** len(polys):
        raise RuntimeError("resultant iteration lost monicity or degree")
    if not zp_is_squarefree_in_z(p):
        raise DegenerateSumError(
            "distinct sign combinations of the square roots collide"
        )
    return MinPoly(poly=p, generators=tuple(RatFunc(f) for f in polys))
