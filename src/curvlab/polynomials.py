"""Exact univariate polynomials over Q and Z/m, and factorization over Q.

A polynomial is its list of coefficients, constant term first, without
trailing zeros (the zero polynomial is []).  The argument m of the
arithmetic is the modulus of the coefficients: 0 over Q (ints and
Fractions), else an int m >= 2 with coefficients in 0 .. m - 1.  Division
mod m is by a polynomial whose leading coefficient is a unit mod m.

`factor_over_q` is Zassenhaus's algorithm over Fractions and ints: Yun's
squarefree decomposition, Berlekamp mod a good prime (its kernel a
`LinearSystem` over F_p), Hensel lifting past twice Mignotte's bound and
recombination by trial division.  It serves the rational split of
`semisimple`, which needs the CRT idempotents of minimal polynomials.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb, gcd, isqrt, lcm
from typing import List, Optional

from .fields import GF
from .gradedlin import LinearSystem


def _reduce(a: list, m: int) -> list:
    """a reduced mod m (if m != 0), without its trailing zeros; a is a list
    the caller built, and may be changed."""
    if m:
        a = [c % m for c in a]
    while a and not a[-1]:
        a.pop()
    return a


def _unit_inverse(c, m: int):
    return pow(c, -1, m) if m else 1 / Fraction(c)


def _poly_sub(a: list, b: list, m: int = 0) -> list:
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    return _reduce([x - y for x, y in zip(a, b)], m)


def poly_mul(a: list, b: list, m: int = 0) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _reduce(out, m)


def poly_divmod(a: list, b: list, m: int = 0):
    """(q, r) with a = q b + r and deg r < deg b, for b != 0."""
    inv = _unit_inverse(b[-1], m)
    n = len(b) - 1
    r = list(a)
    q = [0] * max(len(a) - n, 0)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + n] * inv
        if m:
            c %= m
        if c:
            q[k] = c
            for j, y in enumerate(b):
                r[k + j] -= c * y
    return _reduce(q, m), _reduce(r[:n], m)


def _poly_monic(a: list, m: int = 0) -> list:
    inv = _unit_inverse(a[-1], m)
    return _reduce([c * inv for c in a], m)


def _poly_derivative(a: list, m: int = 0) -> list:
    return _reduce([i * a[i] for i in range(1, len(a))], m)


def _poly_gcd(a: list, b: list, m: int = 0) -> list:
    """The monic gcd of a and b, not both zero, over Q or F_m (m prime)."""
    while b:
        a, b = b, poly_divmod(a, b, m)[1]
    return _poly_monic(a, m)


def poly_inverse(a: list, f: list, m: int = 0) -> list:
    """The b of degree below deg f with a b = 1 mod f, over Q or F_m (m
    prime), by the extended Euclidean algorithm.  A common factor of a and
    f is an internal error."""
    r0, r1 = f, poly_divmod(a, f, m)[1]
    t0, t1 = [], [1]
    while r1:
        q, r = poly_divmod(r0, r1, m)
        r0, r1 = r1, r
        t0, t1 = t1, _poly_sub(t0, poly_mul(q, t1, m), m)
    if len(r0) != 1:
        raise AssertionError("polynomials assumed coprime are not coprime (internal error)")
    return poly_divmod(poly_mul(t0, [_unit_inverse(r0[0], m)], m), f, m)[1]


def factor_over_q(f: list) -> list:
    """[(q, i)]: the monic irreducible factors q over Q of the monic f of
    degree >= 1, each with its multiplicity i.

    Yun's squarefree decomposition, then Zassenhaus on each part over Z:
    factors mod a good prime by Berlekamp, Hensel-lifted, recombined by
    trial division (Zassenhaus, "On Hensel factorization I", J. Number
    Theory 1, 1969; Cohen, GTM 138, section 3.5).
    """
    out = []
    for a, i in _squarefree_decomposition(f):
        den = lcm(*(Fraction(c).denominator for c in a))
        ints = [int(c * den) for c in a]
        for q in _factor_squarefree(_primitive(ints)):
            out.append((_poly_monic(q), i))
    return out


def _squarefree_decomposition(f: list) -> list:
    """[(a, i)] with f = prod a^i for the monic f over Q, each a monic,
    squarefree and of degree >= 1, the a pairwise coprime (Yun)."""
    df = _poly_derivative(f)
    a0 = _poly_gcd(f, df)
    if len(a0) == 1:
        return [(f, 1)]
    b = poly_divmod(f, a0)[0]
    d = _poly_sub(poly_divmod(df, a0)[0], _poly_derivative(b))
    out, i = [], 1
    while len(b) > 1:
        a = _poly_gcd(b, d)
        b = poly_divmod(b, a)[0]
        d = _poly_sub(poly_divmod(d, a)[0], _poly_derivative(b))
        if len(a) > 1:
            out.append((a, i))
        i += 1
    return out


def _primitive(a: list) -> list:
    """The int polynomial a divided by its content, leading coefficient > 0."""
    c = gcd(*a)
    c = -c if a[-1] < 0 else c
    return [x // c for x in a]


def _factor_squarefree(g: list) -> list:
    """The irreducible factors over Z of the primitive squarefree int
    polynomial g of degree >= 1 (Zassenhaus).

    The prime p is the least one not dividing lc(g) with g squarefree mod
    p.  The factors mod p are lifted mod p^a past twice Mignotte's bound
    C(n-1, (n-1)//2) ||g||_2 on the coefficients of lc(r) h / lc(h), for a
    proper factor h of a divisor r of g.  So the product of lifted factors
    that lc(r) h / lc(h) reduces to, taken between -p^a/2 and p^a/2, is that
    polynomial, and its primitive part is h.
    """
    n = len(g) - 1
    if n == 1:
        return [g]
    p = 1
    while True:
        p += 1
        if any(p % q == 0 for q in range(2, isqrt(p) + 1)) or g[-1] % p == 0:
            continue
        u = _poly_monic(_reduce(list(g), p), p)
        if len(_poly_gcd(u, _poly_derivative(u, p), p)) == 1:
            break
    factors = _berlekamp(u, p)
    if len(factors) == 1:
        return [g]
    bound = 2 * comb(n - 1, (n - 1) // 2) * (isqrt(sum(c * c for c in g)) + 1)
    return _recombine(g, *_hensel_lift(g, u, factors, p, bound))


def _berlekamp(u: list, p: int) -> List[list]:
    """The monic irreducible factors over F_p of the monic squarefree u.

    The kernel of v -> v^p - v on F_p[x]/(u), a `LinearSystem` over the
    basis 1, x, ..., x^(n-1), has dimension the number r of factors; the
    gcds of each factor with v - s (s in F_p) split it, and the kernel
    basis separates every pair of factors (Berlekamp, Bell Syst. Tech. J.
    46, 1967).
    """
    n = len(u) - 1
    xp = poly_divmod([0] * p + [1], u, p)[1]
    columns, power = [], [1]
    for i in range(n):  # column i: x^(p i) - x^i mod u
        columns.append({j: c for j, c in enumerate(_poly_sub(power, [0] * i + [1], p)) if c})
        power = poly_divmod(poly_mul(power, xp, p), u, p)[1]
    kernel = LinearSystem(GF(p), columns, n).kernel
    factors = [u]
    for k in kernel:
        if len(factors) == len(kernel):
            break
        v = _reduce([k.get(j, 0) for j in range(n)], p)
        if len(v) < 2:  # a constant splits nothing
            continue
        split = []
        for f in factors:
            if len(f) == 2:
                split.append(f)
                continue
            for s in range(p):
                h = _poly_gcd(f, _poly_sub(v, [s], p), p)
                if len(h) > 1:
                    split.append(h)
        factors = split
    if len(factors) != len(kernel):
        raise AssertionError("Berlekamp split is incomplete (internal error)")
    return factors


def _hensel_lift(g: list, u: list, factors: List[list], p: int, bound: int):
    """(lifted, M): monic F_i mod M = p^a > bound with F_i = factors[i] mod
    p and g = lc(g) prod F_i mod M, from u = g / lc(g) = prod factors mod p,
    lifted one power of p at a time.

    With s_i the inverse mod p of prod_{j != i} f_j modulo f_i, the sum of
    the s_i prod_{j != i} f_j is 1 mod p, so the correction of F_i by
    M (e s_i mod f_i), e = (g / lc(g) - prod F_j) / M, gives the product mod
    p M."""
    cofactors = [poly_inverse(poly_divmod(u, f, p)[0], f, p) for f in factors]
    top = p
    while top <= bound:
        top *= p
    monic = _poly_monic(_reduce(list(g), top), top)
    lifted, M = [list(f) for f in factors], p
    while M < top:
        Mp = M * p
        prod = [1]
        for F in lifted:
            prod = poly_mul(prod, F, Mp)
        e = [c // M for c in _poly_sub(_reduce(monic, Mp), prod, Mp)]
        for F, f, s in zip(lifted, factors, cofactors):
            for j, c in enumerate(poly_divmod(poly_mul(e, s, p), f, p)[1]):
                F[j] += M * c
        M = Mp
    return lifted, M


def _recombine(g: list, lifted: List[list], M: int) -> List[list]:
    """The irreducible factors of g over Z from its lifted factors mod M:
    subsets of s = 1, 2, ... factors, times the leading coefficient of what
    is left of g, kept when their primitive part divides it."""
    out, rest, s = [], g, 1
    while 2 * s <= len(lifted):
        for S in combinations(range(len(lifted)), s):
            cand = [rest[-1] % M]
            for i in S:
                cand = poly_mul(cand, lifted[i], M)
            cand = _primitive([c - M if 2 * c > M else c for c in cand])
            q = _exact_quotient(rest, cand)
            if q is not None:
                out.append(cand)
                rest = q
                lifted = [F for i, F in enumerate(lifted) if i not in S]
                break
        else:
            s += 1
    out.append(rest)
    return out


def _exact_quotient(a: list, b: list) -> Optional[list]:
    """a / b over Z, or None when b does not divide a in Z[x]."""
    n = len(b) - 1
    r = list(a)
    q = [0] * (len(a) - n)
    for k in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[k + n], b[-1])
        if rem:
            return None
        q[k] = c
        for j, y in enumerate(b):
            r[k + j] -= c * y
    return q if not any(r[:n]) else None
