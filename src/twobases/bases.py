"""Bases as exact real algebraic numbers, and expansions of 1.

An AlgBase carries an integer polynomial, the rational bracket it was built
with, isolating one root in (1, 2], and one working bracket, a bisection
cell of that, which every refinement and sign test narrows through one
descent (`AlgBase._descend`).  All sign decisions are exact: either the
number is rational and we compare directly, or an enclosure excludes zero.
The descent is quadratic interval refinement whose cells are bisection's
(`_bisect`): a few dozen polynomial evaluations for thousands of levels
near a simple root, and at most 4n + 2 for n levels at any root.  A base
prints the bisection cell of its construction bracket at a given width,
so what it prints does not depend on which calls ran first.  The sign of
an integer polynomial at q comes from one engine, `AlgBase.sign_of`: a
fixed-point table of the powers of q on the working bracket.  FieldElem
gives exact arithmetic in Q(q), as integer coefficients over one
denominator, for series values and the points expansion counting starts
from; its signs, `b2core.sign_at` and `AlgBase.cmp_rational` all come from
that table.
A remainder walk (the orbit of 1, or of a point, under r -> q r - d) keys
its states by value (`_Walk`): a remainder stays O(1) while its
coefficients grow without bound, so a state is an integer enclosure of
2^WALK_BITS r and the digits taken since its last exact anchor.  A step is
one outward-rounded multiply by an enclosure of q built once per walk;
states are filed by the buckets of their enclosure's ends.  An integer
vector num over den, r = num(q) / den, is made only to re-anchor an
enclosure past 2^-42 (`NumberField.enclose`, by the table sum that signs
too), to sign where the enclosure does not, or to settle states that
share a bucket; it is replayed from the nearest anchor in one pass over
a table of the powers of q.  One generator, `_orbit`, walks the orbit of
1 and owns its state.  A walk that does not close may refuse early on an
escape under a conjugate of q (`conjugates.escapes`).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, cycle, islice, repeat
from math import gcd, lcm
from operator import add, mul, sub

from . import polys
from .errors import DomainError, UnsupportedBaseError
from .polys import _hvalue, _sign
from .words import EPSeq, lex_cmp, _tail_numerator

# ---------------------------------------------------------------------------
# number field arithmetic

# Refinements of a bracket (each at least halves it) that one call of a
# comparison or printing loop, or one call of `AlgBase.sign_of` counted in
# halvings of the base's working bracket, may make before it gives up with
# UnsupportedBaseError.  A walk's anchor (`NumberField.enclose`) and its
# enclosure of q spend at most as many halvings per call, and keep the
# wider enclosure they reach.
SIGN_REFINE_BUDGET = 4096


# Bits beyond a polynomial's own coefficient size that a sign test aims its
# precision at.  It decides only how often a table is rebuilt, never whether
# an enclosure holds.
SIGN_GUARD_BITS = 64


# Bits of the fixed-point enclosure lo <= 2^WALK_BITS v <= hi of each
# remainder v of a walk.  It decides only how often a walk re-anchors and
# how wide its buckets are, never whether an enclosure holds.
WALK_BITS = 128


def _apart(s: int, e: int, k: int) -> bool:
    """Does the power table's sum s +- e exclude zero?"""
    return abs(s) > e


def _undecided(what: str) -> UnsupportedBaseError:
    return UnsupportedBaseError(
        f"{what} undecided after {SIGN_REFINE_BUDGET} bracket refinements")


def _secant_index(fa: int, fb: int, k: int) -> int:
    """The point of the grid 1, ..., 2^k - 1 nearest to where the chord
    from (0, fa) to (2^k, fb) meets zero, or the middle one when fa and fb
    do not differ in sign.  Only the leading bits of fa and fb are used: the
    index is a guess, which the caller checks by signs."""
    if fa < 0:
        fa, fb = -fa, -fb
    if fb >= 0:
        return 1 << (k - 1)
    den = fa - fb
    s = max(den.bit_length() - k - 32, 0)
    fa, den = fa >> s, den >> s
    g = ((fa << (k + 1)) + den) // (den << 1)
    return min(max(g, 1), (1 << k) - 1)


def _bisect(rev: tuple, a: int, b: int, d: int, n: int) -> tuple:
    """The level-n bisection cell of the bracket (a/d, b/d) of the one root
    of a polynomial in it, given by its reversed coefficients rev: the
    (a', b', d') with d' = 2^n d and b' - a' = b - a that n halvings reach,
    or (m, m, D) when a grid point m/D met on the way is the root.

    Quadratic interval refinement (QIR; Abbott, "Quadratic interval
    refinement for real roots", 2006) whose cells are bisection's.  A step
    cuts the cell into 2^k equal sub-cells, k <= n, evaluates at the grid
    point nearest the secant's zero and at the neighbour on the side its
    sign points to, and when those two values differ strictly in sign takes
    the sub-cell between them: k levels in one step, after which k doubles.
    Otherwise the cell stays and k halves.  A step with k = 1 is one plain
    halving and always moves.  The sides come from the sign at the lower
    end, computed here, so no stored sign can send the loop astray.

    A sub-cell of a power-of-two grid is a bisection cell.  A root that is
    no grid point of level <= n lies inside exactly one level-n cell; a
    root that is one cannot lie inside a level-n cell, so it is met as an
    exact zero, as bisection meets it at a midpoint.  Hence the result is
    bisection's.  Termination: every step either descends k >= 1 levels or
    fails and halves k >= 2, and k at most doubles per descent, so there
    are at most n descents and n failures, and the loop ends within 2n
    steps and 4n + 2 evaluations.  Near a simple root the secant's guess
    lands in the right sub-cell from some k on: 2000 levels take about a
    dozen steps and twenty evaluations.  The sign at m / D is that of
    D^deg poly(m / D), by homogenised Horner in integers (`polys._hvalue`)."""
    w = b - a
    deg = len(rev) - 1
    fa = _hvalue(rev, a, d)
    fb = None  # the value at the upper end, made when a secant needs it
    k = 1
    while n:
        k = min(k, n)
        if k > 1 and fb is None:
            fb = _hvalue(rev, a + w, d)
        # the grid (a + i w) / d, i = 0 .. 2^k, after scaling by 2^k
        a, d = a << k, d << k
        g = _secant_index(fa, fb, k) if k > 1 else 1
        m = a + g * w
        fm = _hvalue(rev, m, d)
        if not fm:
            return m, m, d
        # the neighbour on the root's side: above m when fm has fa's sign
        h = g + 1 if (fm > 0) == (fa > 0) else g - 1
        x = a + h * w
        if h == 0:
            fh = fa << k * deg
        elif h == 1 << k:
            fh = None if fb is None else fb << k * deg
        else:
            fh = _hvalue(rev, x, d)
            if not fh:
                return x, x, d
        if k == 1 or (fh > 0) != (fm > 0):
            # descend k levels, into the sub-cell between m and x
            a, fa, fb = (m, fm, fh) if h > g else (x, fh, fm)
            n -= k
            k *= 2
        else:
            # no sign change next to the guess: keep the cell, halve k
            a, d = a >> k, d >> k
            k //= 2
    return a, a + w, d


class NumberField:
    """Q(q) for an AlgBase q with irreducible minimal polynomial."""

    def __init__(self, base: "AlgBase"):
        self.base = base
        self.minpoly = base.minpoly()
        self.deg = len(self.minpoly) - 1
        if self.deg < 1:
            raise DomainError("degenerate minimal polynomial")
        # the nonzero lower coefficients of m, for reduction and the walks'
        # table of powers
        self._terms = tuple((j, c) for j, c in enumerate(self.minpoly[:-1]) if c)
        self._series_den_inv = {}
        self._xpow = [(1,) + (0,) * (self.deg - 1)]
        self.discs = None  # about the conjugates of q, made by `conjugates.escapes`

    def reduce(self, coeffs, den: int = 1) -> "FieldElem":
        """The element coeffs(q) / den, for integer coeffs and den > 0.

        coeffs is pseudo-reduced in integers by the primitive minimal
        polynomial m.  When m is monic that subtracts multiples of m and den
        stays; otherwise, before a top term t is eliminated, everything is
        scaled by lead(m) / gcd(t, lead(m)), and den by the same factor.

        This is `polys.pseudo_divmod` specialised to one fixed divisor with
        its terms precomputed and no quotient kept: routed through the
        general loop, reducing products of two elements took 1.2-2.6x as
        long in fields of degree 2 to 17 (CPython 3.11)."""
        c = list(coeffs)
        d, lead, terms = self.deg, self.minpoly[-1], self._terms
        for i in range(len(c) - 1, d - 1, -1):
            top = c.pop()
            if not top:
                continue
            if lead != 1:
                g = gcd(top, lead)
                k = lead // g
                if k != 1:
                    c = [a * k for a in c]
                    den *= k
                top //= g
            base = i - d
            for j, m in terms:
                c[base + j] -= top * m
        if len(c) < d:
            c += [0] * (d - len(c))
        return FieldElem(self, tuple(c), den)

    def elem(self, coeffs) -> "FieldElem":
        """The element sum coeffs[i] q^i, for int or Fraction coefficients."""
        den = lcm(*(a.denominator for a in coeffs))
        return self.reduce((a.numerator * (den // a.denominator) for a in coeffs), den)

    def zero(self) -> "FieldElem":
        return self.elem(())

    def one(self) -> "FieldElem":
        return self.elem((1,))

    def base_elem(self) -> "FieldElem":
        return self.elem((0, 1))

    def from_rational(self, r) -> "FieldElem":
        r = Fraction(r)
        return FieldElem(self, (r.numerator,) + (0,) * (self.deg - 1), r.denominator)

    def series_den_inv(self, m: int, p: int) -> "FieldElem":
        """1 / (q^m (q^p - 1)), the inverse denominator of a series with
        preperiod length m and period length p; cached per (m, p)."""
        inv = self._series_den_inv.get((m, p))
        if inv is None:
            den = polys.shift(polys.add(polys.shift((1,), p), (-1,)), m)
            inv = self._series_den_inv[(m, p)] = self.elem(den).inv()
        return inv

    def _powers(self, n: int) -> list:
        """V_0 .. V_n, q^e = V_e(q) / L^max(0, e - deg + 1) for L = lead(m),
        kept for the walks: each the one before shifted up, and from
        e = deg on times L less its top coefficient times m."""
        V, L = self._xpow, self.minpoly[-1]
        while len(V) <= n:
            *t, top = V[-1]
            t.insert(0, 0)
            if len(V) >= self.deg:
                t = [a * L for a in t]
                for j, m in self._terms:
                    t[j] -= top * m
            V.append(tuple(t))
        return V

    def _enclose_q(self) -> tuple:
        """(P, lo, hi, 2^P, 2^(P - P // 3)) with lo <= 2^P q <= hi and
        P = WALK_BITS, the enclosure of q that one walk steps by, read off
        the working bracket after narrowing it towards width 2^-P by at
        most SIGN_REFINE_BUDGET halvings: within two units unless the
        budget stops it first."""
        P, q = WALK_BITS, self.base
        if q.exact_rational is None:
            a, b, d = q._cell
            q._descend(min((((b - a) << P) // d).bit_length(), SIGN_REFINE_BUDGET))
        lo, hi = q._lo, q._hi
        return (P, (lo.numerator << P) // lo.denominator,
                -((-hi.numerator << P) // hi.denominator), 1 << P, 1 << (P - P // 3))

    def enclose(self, num: tuple, den: int) -> tuple:
        """Integers lo <= 2^P r <= hi, P = WALK_BITS, for r = num(q) / den,
        from its exact coefficients: a walk's anchor.  The power table's sum
        (`AlgBase._table_sum`) is aimed at a width of one unit, rounded
        outward, and at most SIGN_REFINE_BUDGET halvings are spent on it;
        the enclosure holds however wide that leaves it."""
        P = WALK_BITS
        if not any(num[1:]):
            return (num[0] << P) // den, -((-num[0] << P) // den)
        # deg >= 2: q is irrational, so no halving makes the base exact and
        # the sum is returned
        s, e, k = self.base._table_sum(num, P + SIGN_GUARD_BITS - den.bit_length(),
                                       lambda s, e, k: e << P <= den << k)
        den <<= k + 1
        return (s - e << P) // den, -((-(s + e) << P) // den)


class FieldElem:
    """Element num(q) / den of Q(q): num an integer tuple of length deg and
    den a positive integer, kept in lowest terms (gcd(den, *num) = 1), so
    equal values have equal num and den."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: NumberField, num: tuple, den: int = 1):
        if den != 1:
            g = gcd(den, *num)
            if g != 1:
                num = tuple(a // g for a in num)
                den //= g
        self.field = field
        self.num = num
        self.den = den

    @property
    def coeffs(self) -> tuple:
        """The coefficients of q^0, ..., q^(deg-1), as Fractions."""
        return tuple(Fraction(a, self.den) for a in self.num)

    def __eq__(self, other):
        return (
            isinstance(other, FieldElem)
            and self.field is other.field
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"FieldElem({self.num}, {self.den})"

    def is_zero(self) -> bool:
        return not any(self.num)

    def _coerce(self, other):
        if isinstance(other, FieldElem):
            if other.field is not self.field:
                raise DomainError("field mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return NotImplemented

    def _combine(self, other, op):
        """self op other, for op = operator.add or operator.sub."""
        if isinstance(other, int):
            if not other:
                return self
            num = list(self.num)
            num[0] = op(num[0], other * self.den)
            return FieldElem(self.field, tuple(num), self.den)
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        a, b = self.den, o.den
        if a == b:
            return FieldElem(self.field, tuple(map(op, self.num, o.num)), a)
        g = gcd(a, b)
        ka, kb = b // g, a // g
        return FieldElem(
            self.field,
            tuple(op(x * ka, y * kb) for x, y in zip(self.num, o.num)),
            a * ka,
        )

    def __add__(self, other):
        return self._combine(other, add)

    __radd__ = __add__

    def __neg__(self):
        return FieldElem(self.field, tuple(-a for a in self.num), self.den)

    def __sub__(self, other):
        return self._combine(other, sub)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, FieldElem):
            if other.field is not self.field:
                raise DomainError("field mismatch")
            return self.field.reduce(polys.mul(self.num, other.num), self.den * other.den)
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            return FieldElem(self.field, tuple(a * p for a in self.num), self.den * q)
        return NotImplemented

    __rmul__ = __mul__

    def inv(self) -> "FieldElem":
        """1 / self, by the extended primitive remainder sequence of
        (minpoly, num) in integers.

        The cofactor s_i of remainder r_i is the element with
        r_i(q) = s_i num(q).  From k r_(i-1) = quo r_i + rem and
        r_(i+1) = rem / c, with c the content of rem signed so that r_(i+1)
        has a positive leading coefficient,
        s_(i+1) = (k s_(i-1) - quo(q) s_i) / c.  Degrees fall at every
        step, so the loop ends within deg m steps at a constant r_last,
        and 1 / self = den s / r_last."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        fld = self.field
        a, b = fld.minpoly, polys.trim(self.num)
        s0, s1 = fld.zero(), fld.one()
        while len(b) > 1:
            k, quo, rem = polys.pseudo_divmod(a, b)
            if not rem:
                raise DomainError("minimal polynomial not irreducible")
            c = gcd(*rem) if rem[-1] > 0 else -gcd(*rem)
            a, b = b, tuple(x // c for x in rem)
            # deg quo + deg s_i < deg m, so the product needs no reduction
            qs = fld.reduce(polys.mul(quo, s1.num), s1.den)
            s0, s1 = s1, (s0 * k - qs) * Fraction(1, c)
        return s1 * Fraction(self.den, b[0])

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inv()

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        out = self.field.one()
        b = self
        while n:
            if n & 1:
                out = out * b
            b = b * b
            n >>= 1
        return out

    def sign(self) -> int:
        """Exact sign of the represented real number, by `AlgBase.sign_of`
        (den > 0 gives it the sign of num(q)): a nonconstant reduced num is
        prime to the irreducible minimal polynomial, so num(q) != 0."""
        return self.field.base.sign_of(self.num)


# ---------------------------------------------------------------------------
# algebraic bases


def _over_one_den(lo: Fraction, hi: Fraction) -> tuple:
    """(a, b, d) with lo = a/d and hi = b/d."""
    d = lcm(lo.denominator, hi.denominator)
    return lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator), d


class AlgBase:
    """A real algebraic number q in (1, 2], the base of the expansions."""

    def __init__(self, poly, lo, hi, *, exact=None, alpha_hint=None, _verified=False):
        self.poly = polys.to_int_poly(polys.trim(poly))
        lo, hi = Fraction(lo), Fraction(hi)
        # the construction bracket _built and the working one _cell, each
        # (a, b, d) for (a/d, b/d); _lo and _hi are the working ends, or q
        # when it is exact, and the table of the powers of q is at width
        # bits _sign_bits
        self._built = self._cell = _over_one_den(lo, hi)
        self._lo, self._hi = (lo, hi) if exact is None else (exact, exact)
        self._sign_bits, self._powers = 0, ((), ())
        self.exact_rational = exact
        self.alpha_hint = alpha_hint
        self._minpoly = None
        self._field = None
        if exact is None:
            if not _verified:
                raise DomainError("use a from_* constructor")
            slo = polys.sign_at_rational(self.poly, lo)
            shi = polys.sign_at_rational(self.poly, hi)
            if slo * shi >= 0:
                raise DomainError("bracket endpoints must straddle the root")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, r) -> "AlgBase":
        r = Fraction(r)
        if not (1 < r <= 2):
            raise DomainError(f"base must lie in (1,2], got {r}")
        self = cls((-r.numerator, r.denominator), r, r, exact=r)
        self._minpoly = self.poly
        return self

    @classmethod
    def from_poly(cls, poly, lo, hi) -> "AlgBase":
        """Bracket verified by a root count: exactly one root in (lo, hi]."""
        lo, hi = Fraction(lo), Fraction(hi)
        if not (1 <= lo < hi <= 2):
            raise DomainError("bracket must satisfy 1 <= lo < hi <= 2")
        p = polys.trim(poly)
        if polys.degree(p) < 1:
            raise DomainError("need a nonconstant polynomial")
        sf = polys.squarefree_part(p)
        if polys._chain_count(polys.sturm_chain(sf), lo, hi) != 1:
            raise DomainError("polynomial must have exactly one root in (lo, hi]")
        if polys.sign_at_rational(sf, hi) == 0:
            return cls(p, lo, hi, exact=hi)
        # the one root is simple in sf and interior, so sf straddles it
        return cls(sf, lo, hi, _verified=True)

    # -- bracket handling --------------------------------------------------

    def bracket(self, width=None) -> tuple:
        """Without a width, the working bracket, which every refinement,
        comparison and sign narrows: for code that only decides.  With one,
        a fixed cell, for what the base prints and for any end that shapes
        an answer: the bisection cell of its construction bracket at the
        fewest levels narrower than width, or (q, q) when bisection meets q
        on the way, the same however far earlier work narrowed the base.
        It is read off the working cell, refined first if needed, with no
        evaluation."""
        if width is None:
            return self._lo, self._hi
        self.refine(width)
        a0, b0, d0 = self._built
        n, w, lo = self._levels(width, d0), b0 - a0, self._lo
        # lo = (a0 + t w) / d0 lies in the level-n cell of index floor(2^n t);
        # w = 0 only for a rational base, built on the point (q, q)
        i, off = divmod((lo.numerator * d0 - a0 * lo.denominator) << n,
                        (w or 1) * lo.denominator)
        if self.exact_rational is not None and not off:
            return lo, lo
        a = (a0 << n) + i * w
        return Fraction(a, d0 << n), Fraction(a + w, d0 << n)

    def _levels(self, width, d: int) -> int:
        """The fewest halvings that leave a bisection cell over denominator
        d narrower than width: each keeps its numerator width b - a and
        doubles d, so the bit length of floor((b - a) / (width d))."""
        width = Fraction(width)
        if width <= 0:
            raise DomainError("refinement width must be positive")
        a, b, _ = self._built
        return ((b - a) * width.denominator // (width.numerator * d)).bit_length()

    def refine(self, width) -> "AlgBase":
        """Narrow the working bracket to the bisection cell of the fewest
        levels that is narrower than width, unless it is narrower already."""
        if self.exact_rational is None:
            self._descend(self._levels(width, self._cell[2]))
        return self

    def _descend(self, n: int):
        """Narrow the working bracket n levels down by `_bisect`, on the
        minimal polynomial once it is known: the bracket holds exactly one
        root of it and of the base's polynomial, so the cells are the same.
        A grid point that is q makes the base exact."""
        if not n:
            return
        a, b, d = _bisect(tuple(reversed(self._minpoly or self.poly)), *self._cell, n)
        if a == b:
            self.exact_rational = self._lo = self._hi = Fraction(a, d)
        else:
            self._cell = a, b, d
            self._lo, self._hi = Fraction(a, d), Fraction(b, d)

    def __float__(self):
        lo, hi = self.bracket(Fraction(1, 10**17))
        return float((lo + hi) / 2)

    def __repr__(self):
        return f"AlgBase({polys.poly_text(self.minpoly() if self._minpoly else self.poly)} ~ {float(self):.6f})"

    # -- exact identity ----------------------------------------------------

    def minpoly(self) -> tuple:
        """Irreducible primitive polynomial with positive leading coefficient."""
        if self._minpoly is None:
            if self.exact_rational is not None:
                r = self.exact_rational
                self._minpoly = polys.to_int_poly((-r.numerator, r.denominator))
            else:
                hits = [f for f, n in polys.root_factors(self.poly, self._lo, self._hi)
                        if n == 1]
                if len(hits) != 1:
                    raise DomainError(
                        f"bracket holds a root of {len(hits)} irreducible factors"
                    )
                self._minpoly = hits[0]
        return self._minpoly

    def field(self) -> NumberField:
        if self._field is None:
            self._field = NumberField(self)
        return self._field

    def as_field_elem(self) -> FieldElem:
        return self.field().base_elem()

    def cmp(self, other: "AlgBase") -> int:
        """Sign of self - other.  Four rounds refine both brackets to a
        quarter of the narrower width (at most 1/2).  If they still overlap,
        the fifth decides by other's bracket, whose one root of other's
        polynomial is other: self at or below its lower end is less, above
        its upper end greater, and inside it equal exactly when it roots
        that polynomial (`is_root_of`).  Then each is refined to a quarter
        of its own width until they separate.  A base turned exact is
        compared as a rational."""
        a, b = self, other
        for i in range(4 + SIGN_REFINE_BUDGET):
            ra, rb = a.exact_rational, b.exact_rational
            if ra is not None:
                return -b.cmp_rational(ra) if rb is None else _sign(ra - rb)
            if rb is not None:
                return a.cmp_rational(rb)
            alo, ahi, blo, bhi = a._lo, a._hi, b._lo, b._hi
            if ahi < blo:
                return -1
            if bhi < alo:
                return 1
            if i < 4:
                wa = wb = min(ahi - alo, bhi - blo, Fraction(1, 2)) / 4
            else:
                if i == 4:
                    if a.cmp_rational(blo) <= 0:
                        return -1
                    if a.cmp_rational(bhi) > 0:
                        return 1
                    if a.is_root_of(b.poly):
                        return 0
                wa, wb = (ahi - alo) / 4, (bhi - blo) / 4
            a.refine(wa)
            b.refine(wb)
        raise _undecided("comparison")

    def same_value(self, other: "AlgBase") -> bool:
        return self.cmp(other) == 0

    def cmp_rational(self, r) -> int:
        r = Fraction(r)
        if self.exact_rational is not None:
            return _sign(self.exact_rational - r)
        if r <= self._lo:
            return 1
        if r > self._hi:
            return -1
        if polys.sign_at_rational(self.poly, r) == 0:
            # unique root in the bracket, and r is a root inside it
            self.exact_rational = self._lo = self._hi = r
            return 0
        return self.sign_of((-r.numerator, r.denominator))

    # -- the sign engine ---------------------------------------------------

    def is_root_of(self, F) -> bool:
        """Does q root the integer polynomial F?  Exact: the one zero test at
        an algebraic point (`cmp`'s equality, `b2core.sign_at`,
        `b2core._witness`, `enum_b2._endpoint_certificate`)."""
        if self.exact_rational is not None:
            return polys.sign_at_rational(F, self.exact_rational) == 0
        if self._minpoly is not None:
            return polys.is_zero(polys.pseudo_divmod(F, self._minpoly)[2])
        # no minimal polynomial yet: the bracket holds exactly one root of
        # the base's poly, so q roots F iff their gcd has a root in it
        g = polys.poly_gcd(self.poly, F)
        return polys.degree(g) >= 1 and polys.count_roots_halfopen(g, self._lo, self._hi) > 0

    def sign_of(self, p) -> int:
        """Exact sign of p(q), for an integer polynomial p (ascending
        coefficients) that is constant or has p(q) != 0;
        UnsupportedBaseError when SIGN_REFINE_BUDGET halvings of the working
        bracket in this call do not separate p(q) from zero.  A constant is
        its own sign.  Otherwise the power table's sum (`_table_sum`)
        decides once it excludes zero, its precision aimed at the
        coefficients' size plus SIGN_GUARD_BITS.  A halving that lands on q
        makes the base exact, and the sign is then taken at that rational."""
        if not any(p[1:]):
            return _sign(p[0])
        enc = self._table_sum(p, SIGN_GUARD_BITS, _apart)
        if enc is None:
            return polys.sign_at_rational(p, self.exact_rational)
        s, e, _ = enc
        if abs(s) > e:
            return 1 if s > 0 else -1
        raise _undecided("sign")

    def _table_sum(self, p, extra: int, done):
        """Integers s, e and K with |2^(K+1) p(q) - s| <= e, for an integer
        polynomial p, from the table of the powers of q at K bits; None once
        a halving has made the base exact.

        With lo <= q <= hi and 1 <= lo, integers lo_i <= 2^K q^i <= hi_i,
        rounded outward, bound each term by the end its coefficient's sign
        picks.  The table keeps mid_i = lo_i + hi_i and rad_i = hi_i - lo_i,
        which give the same enclosure: s = sum c_i mid_i and
        e = sum |c_i| rad_i.  It grows to the longest p asked for.

        The table is built on the working bracket and stays valid as other
        calls narrow it.  While done(s, e, K) is false, the precision K grows
        to the coefficients' size plus extra bits, and at least by a
        quarter: the working bracket is narrowed to that width unless it is
        narrower already, and the table is rebuilt on it once.  After
        SIGN_REFINE_BUDGET halvings in one call the last sum is returned as
        it stands."""
        spent = 0
        while self.exact_rational is None:
            mid, rad = self._powers
            if len(mid) < len(p):
                self._tabulate(len(p))
                mid, rad = self._powers
            s = sum(map(mul, p, mid))
            e = sum(map(mul, map(abs, p), rad))
            k = self._sign_bits
            left = SIGN_REFINE_BUDGET - spent
            if done(s, e, k) or left <= 0:
                return s, e, k
            size = max(abs(c) for c in p).bit_length()
            bits = max(size + extra, k + k // 4 + 1)
            a, b, d = self._cell
            # the fewest halvings n with (b - a) 2^bits <= d 2^n
            n = min((-(-((b - a) << bits) // d) - 1).bit_length(), left)
            self._descend(n)
            spent += n
            self._tabulate(len(mid))
        return None

    def _tabulate(self, n: int):
        """Build the table of q^0, ..., q^(n-1) at the width of the working
        bracket."""
        a, b, d = self._cell
        # the largest K with (b - a) 2^K <= d: a width of at most 2^-K
        self._sign_bits = K = (d // (b - a)).bit_length() - 1
        lo, hi = [1 << K], [1 << K]
        for _ in range(n - 1):
            lo.append(lo[-1] * a // d)
            hi.append(-(-hi[-1] * b // d))
        self._powers = ([x + y for x, y in zip(lo, hi)],
                        [y - x for x, y in zip(lo, hi)])

    # -- output ------------------------------------------------------------

    def decimal(self, digits: int = 14) -> str:
        """Decimal string with `digits` fractional digits, all certified."""
        if self.exact_rational is not None:
            return _dec_str(self.exact_rational, digits)
        self.refine(Fraction(1, 10 ** (digits + 2)))
        lo, hi = self.bracket()
        a, b = _dec_str(lo, digits), _dec_str(hi, digits)
        if a == b:
            return a
        # the bracket is narrower than a digit, so the one half-digit
        # boundary m in (lo, hi] decides: q rounds up from m on
        scale = 10 ** digits
        m = Fraction(2 * _round_half_up(hi * scale) - 1, 2 * scale)
        return b if self.cmp_rational(m) >= 0 else a

    def to_json(self, digits: int = 14) -> dict:
        lo, hi = self.bracket(Fraction(1, 10 ** (digits + 2)))
        return {
            "minpoly": list(self.minpoly()),
            "interval": [str(lo), str(hi)],
            "approx": self.decimal(digits),
        }


def _round_half_up(x: Fraction) -> int:
    # a value on a half-digit boundary takes the upper string
    return (2 * x.numerator + x.denominator) // (2 * x.denominator)


def _dec_str(x: Fraction, digits: int, rounding=_round_half_up) -> str:
    """x with `digits` fractional digits, rounded to an integer multiple of
    10**-digits by `rounding` (half up by default; math.floor and math.ceil
    give outward enclosure ends)."""
    n = rounding(x * 10**digits)
    if digits == 0:
        return str(n)
    sign = "-" if n < 0 else ""
    n = abs(n)
    return f"{sign}{n // 10**digits}.{n % 10**digits:0{digits}d}"


def real_roots(F, lo, hi) -> list:
    """Every real root of the integer polynomial F in (lo, hi], as AlgBases,
    taken factor by factor (the irreducible factors of F with a root there,
    in `polys.root_factors` order) and left to right within each factor.
    Needs 1 <= lo < hi <= 2.  Each root keeps its irreducible factor as its
    minimal polynomial."""
    lo, hi = Fraction(lo), Fraction(hi)
    if not (1 <= lo < hi <= 2):
        raise DomainError("bracket must satisfy 1 <= lo < hi <= 2")
    found = []
    for g, n in polys.root_factors(F, lo, hi):
        if polys.degree(g) == 1:
            found.append(AlgBase.from_rational(Fraction(-g[0], g[1])))
            continue
        # isolate_roots returns (lo, hi) itself when it holds one root
        boxes = [(lo, hi)] if n == 1 else polys.isolate_roots(g, lo, hi)
        for a, b in boxes:
            # an isolating box of g, irreducible of degree > 1: its root is inside
            root = AlgBase(g, a, b, _verified=True)
            root._minpoly = g
            found.append(root)
    return found


# ---------------------------------------------------------------------------
# expansions of 1


class _Walk:
    """The states of one remainder walk r -> q r - d, d in {0, 1}, in Q(q).
    State i is (lo, hi, tag, anc, mask): lo <= 2^P r_i <= hi, P = WALK_BITS,
    the tag it is filed under (`add`), and the digits taken since its exact
    anchor anc, the bits of mask below its leading one.  A vector
    (num, den), r = num(q) / den, is made only when a decision needs it;
    kept in vec, it makes its state an anchor, with mask 1.  qenc is the
    enclosure of q every step multiplies by (`NumberField._enclose_q`)."""

    __slots__ = ("fld", "qenc", "cell", "states", "vec", "index", "wide")

    def __init__(self, fld: NumberField):
        self.fld, self.qenc = fld, fld._enclose_q()
        P = self.qenc[0]
        self.cell = P - P // 3 + 1
        self.states, self.vec, self.index, self.wide = [], {}, {}, ()

    def _replay(self, anchor: int, mask: int) -> tuple:
        """The vector of q^k r - sum_s d_s q^(k-s), r the anchor's value and
        d_1 .. d_k the bits of mask below its leading one: in one pass over
        the field's powers (`NumberField._powers`), over L^k for L = lead(m)
        and then in lowest terms when m is not monic, as each step is."""
        num, den = self.vec[anchor]
        k = mask.bit_length() - 1
        if not k:
            return num, den
        deg, L = self.fld.deg, self.fld.minpoly[-1]
        V = self.fld._powers(k + deg - 1)
        ones = [p for p, b in zip(range(k - 1, -1, -1), bin(mask)[3:]) if b == "1"]
        if L == 1:
            ones = [V[p] for p in ones]
        else:
            num = [a * L ** min(k, deg - 1 - j) for j, a in enumerate(num)]
            ones = [[v * L ** min(k, k + deg - 1 - p) for v in V[p]] for p in ones]
        t = [sum(map(mul, num, col)) for col in zip(*V[k:k + deg])]
        if ones:
            t = [a - den * sum(col) for a, col in zip(t, zip(*ones))]
        if L != 1:
            den *= L ** k
            g = gcd(den, *t)
            t, den = [a // g for a in t], den // g
        return tuple(t), den

    def exact(self, i: int) -> tuple:
        """The vector of state i, kept."""
        lo, hi, tag, a, mask = self.states[i]
        if mask == 1:
            return self.vec[a]
        v = self.vec[i] = self._replay(a, mask)
        self.states[i] = lo, hi, tag, i, 1
        return v

    def child(self, i: int, d: int) -> tuple:
        """The vector of q r_i - d."""
        _, _, _, a, mask = self.states[i]
        return self._replay(a, mask << 1 | d)

    def add(self, lo: int, hi: int, i: int, d: int, v, tag) -> int:
        """The state q r_i - d, with enclosure (lo, hi) and vector v (None
        unless the step made it): an earlier state with its value and tag,
        or else a new one, filed unless tag is None.

        A state is filed in the bucket of each end of its enclosure, 2^cell
        units wide, more than any enclosure a step keeps: so it straddles
        at most two buckets, and two states of one value share the bucket
        of that value.  Only an anchor whose refinement budget ran out can
        be wider; every lookup meets it, and it meets every state.  States
        met whose enclosures overlap are settled by exact equality, vectors
        being canonical within a walk."""
        states = self.states
        j = len(states)
        if tag is not None:
            index, cell = self.index, self.cell
            b, c = lo >> cell, hi >> cell
            # j is filed at once, unless a bucket holds a state already or
            # anything is wider than a bucket
            if (index.setdefault(b, j) != j or self.wide
                    or c != b and (c - b > 1 or index.setdefault(c, j) != j)):
                keys = (b,) if c == b else (b, c)
                held = []  # the ids in each bucket, one or a tuple of them
                for key in keys:
                    x = index.get(key, ())
                    if x == j:
                        del index[key]
                        x = ()
                    held.append((x,) if type(x) is int else x)
                wide = c - b > 1
                for k in range(j) if wide else [k for x in held for k in x] + list(self.wide):
                    klo, khi, ktag, _, _ = states[k]
                    if ktag == tag and klo <= hi and lo <= khi:
                        v = v or self.child(i, d)
                        if self.exact(k) == v:
                            return k
                if wide:
                    self.wide += (j,)
                else:
                    for key, x in zip(keys, held):
                        index[key] = x + (j,) if x else j
        if v is None:
            _, _, _, a, mask = states[i]
            states.append((lo, hi, tag, a, mask << 1 | d))
        else:
            self.vec[j] = v
            states.append((lo, hi, tag, j, 1))
        return j


def _plus_one(v: tuple) -> tuple:
    """The vector of r + 1, for the vector v of r."""
    (a, *rest), den = v
    return (a + den, *rest), den


def _orbit(w: _Walk, start: tuple, tags):
    """The orbit of start, a vector (num, den), under r -> q r - d, d the
    quasi-greedy digit, as states of w, each filed under the next tag from
    the iterator tags: yields (i, d, s) for each state i from the start on,
    d and s the digit and the sign of q r - 1 at the state before (None at
    the start), with d = 1 exactly when s > 0.  A state met before comes
    back as its i.  Each is yielded before it is stepped, so a walk that
    stops at a state pays no step for it.

    A step multiplies the enclosure by w's enclosure of q, rounded outward,
    less 2^P, so it widens by about q; once 2^-(P // 3) wide it is
    re-anchored on the exact q r - 1 (`NumberField.enclose`).  The sign is
    the enclosure's where that excludes zero, else the exact sign."""
    fld = w.fld
    P, qlo, qhi, one, wide = w.qenc
    lo, hi = fld.enclose(*start)
    i = w.add(lo, hi, 0, 0, start, next(tags))
    d = s = None
    while True:
        yield i, d, s
        # qlo > 0: the product's ends pair each end of r with the end of q
        # that makes it extreme
        lo = (lo * (qlo if lo >= 0 else qhi) >> P) - one
        hi = -(-hi * (qhi if hi >= 0 else qlo) >> P) - one
        t = None  # the exact q r - 1, once a decision needs it
        if hi - lo >= wide:
            t = w.child(i, 1)
            lo, hi = fld.enclose(*t)
        if lo > 0:
            s = 1
        elif hi < 0:
            s = -1
        else:
            t = t or w.child(i, 1)
            s = fld.base.sign_of(t[0])
        d = 1 if s > 0 else 0
        if not d:
            # the next remainder is q r = (q r - 1) + 1
            lo, hi, t = lo + one, hi + one, t and _plus_one(t)
        i = w.add(lo, hi, i, d, t, next(tags))


def _walk_of_one(q: AlgBase, tags):
    """The orbit of 1 (`_orbit`) on a walk of its own."""
    fld = q.field()
    return _orbit(_Walk(fld), ((1,) + (0,) * (fld.deg - 1), 1), tags)


def alpha_digits(q: AlgBase, n: int) -> str:
    """First n digits of the quasi-greedy expansion of 1: digit 1 exactly
    when the remainder stays strictly positive afterwards."""
    if n < 1:
        raise DomainError("need n >= 1")
    if q.alpha_hint is not None:
        return q.alpha_hint.prefix(n)
    return "".join("01"[a] for _, a, _ in islice(_walk_of_one(q, repeat(None)), 1, n + 1))


def beta_digits(q: AlgBase, n: int):
    """Greedy expansion of 1.  Returns (word, finite); when finite, the word
    is the full expansion b with beta = b 0^inf."""
    if n < 1:
        raise DomainError("need n >= 1")
    out = []
    for _, a, s in islice(_walk_of_one(q, repeat(None)), 1, n + 1):
        if s == 0:
            return "".join(out) + "1", True
        out.append("01"[a])
    return "".join(out), False


def alpha_epseq(q: AlgBase, max_steps: int = 4096) -> EPSeq:
    """Quasi-greedy expansion as an eventually periodic sequence, found by
    exact cycle detection among the first max_steps remainders of the
    orbit.  UnsupportedBaseError when none recurs: at once when q is no
    algebraic integer (some prime P has v_P(q) < 0, and v_P of r_n falls
    at every step), when the newest remainder at 64, 128, ... remainders
    escapes (`conjugates.escapes`), or when the budget runs out."""
    if q.alpha_hint is not None:
        return q.alpha_hint
    fld = q.field()
    if fld.minpoly[-1] != 1:
        raise UnsupportedBaseError(
            f"q is not an algebraic integer (leading coefficient {fld.minpoly[-1]}), so "
            "no remainder recurs; quasi-greedy expansion not eventually periodic")
    w, digits, check = _Walk(fld), [], 64
    orbit = _orbit(w, ((1,) + (0,) * (fld.deg - 1), 1), repeat(0))
    for step, (k, a, _) in enumerate(islice(orbit, max_steps)):
        if step:
            digits.append("01"[a])
        if k != step:
            seq = EPSeq("".join(digits[:k]), "".join(digits[k:]))
            q.alpha_hint = seq
            return seq
        if step + 1 == check:
            check *= 2
            from .conjugates import escapes  # compiled only by a walk that gets here
            why = escapes(w, k)
            if why:
                raise UnsupportedBaseError(
                    f"remainder {step} of the orbit of 1 escapes: {why}, so no "
                    "remainder recurs; quasi-greedy expansion not eventually periodic")
    raise UnsupportedBaseError(
        f"no remainder cycle within {max_steps} steps; "
        "quasi-greedy expansion not detected to be eventually periodic"
    )


def parry_check(s: EPSeq) -> bool:
    """Is s the quasi-greedy expansion of 1 for some base in (1, 2]?
    Required: infinitely many ones, and every tail after a zero digit stays
    lexicographically at most the whole sequence.

    Only the tails at n <= L = |pre| + |per| are distinct.  A tail and s
    both repeat with period |per| from digit |pre| on, so they are equal
    once their first L digits agree; each test compares L-digit strings
    cut from one unrolled prefix of s."""
    if s.per == "0":
        raise DomainError("sequence must have infinitely many ones")
    top = len(s.pre) + len(s.per)
    w = s.prefix(2 * top)
    head = w[:top]
    return w[0] == "1" and all(w[n - 1] == "1" or w[n:n + top] <= head
                               for n in range(1, top + 1))


def base_from_alpha(s: EPSeq) -> AlgBase:
    """The unique base whose quasi-greedy expansion of 1 equals s."""
    if not parry_check(s):
        raise DomainError(f"{s} fails the quasi-greedy admissibility condition")
    # clear denominators of eval_seq(s, q) = 1: q^k (q^p - 1) - numerator = 0,
    # with a positive leading coefficient
    num, k, p = _tail_numerator(s)
    F = polys.sub(polys.shift(polys.add(polys.shift((1,), p), (-1,)), k), num)
    if polys.sign_at_rational(F, 2) == 0:
        base = AlgBase.from_rational(2)
        base.alpha_hint = s
        return base
    # series value strictly decreases in q, so the root is unique; find a
    # bracket by walking toward 1 until the sign flips
    lo = Fraction(3, 2)
    while polys.sign_at_rational(F, lo) >= 0:
        lo = 1 + (lo - 1) / 2
    # F(2) != 0, so the one root lies inside (lo, 2) and F straddles it
    return AlgBase(F, lo, 2, alpha_hint=s, _verified=True)


def cmp_seq_alpha(t: EPSeq, q: AlgBase, max_steps: int = 100000) -> int:
    """Lexicographic comparison of t with the quasi-greedy expansion of 1,
    certified without assuming that expansion is eventually periodic.

    Walks both digit streams over the first max_steps remainders; a
    repeated (position class, remainder) pair proves equality, a digit
    mismatch decides the order.  Terminates for every eventually periodic
    t."""
    if q.alpha_hint is not None:
        return lex_cmp(t, q.alpha_hint)
    k, p = len(t.pre), len(t.per)
    # a state is filed under its position class, i for i < k and then
    # k + (i - k) mod p
    classes = chain(range(k), cycle(range(k, k + p)))
    for i, (j, a, _) in enumerate(islice(_walk_of_one(q, classes), max_steps)):
        if i and t.digit(i - 1) != a:
            return -1 if t.digit(i - 1) < a else 1
        if j != i:
            return 0
    raise UnsupportedBaseError(f"comparison unresolved within {max_steps} remainders")
