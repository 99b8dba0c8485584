"""Polynomials over Q and F_p: arithmetic, roots in F_p and factoring over Q.

A polynomial is a coefficient list [a_0, ..., a_d], a_d != 0 ([] is zero),
with coefficients in Q for p = 0 and reduced mod p otherwise: p is a prime,
or a power of one in Hensel lifting, where only monic divisors and units
mod p are inverted.
"""

import itertools
import math

from .errors import UnsupportedError
from .exactlin import _is_prime, _q_inv


def _poly_trim(f):
    while f and not f[-1]:
        f.pop()
    return f


def _poly_monic(p, f):
    inv = pow(f[-1], -1, p) if p else _q_inv(f[-1])
    return [c * inv % p for c in f] if p else [c * inv for c in f]


def _poly_sub(p, f, g, c=1):
    """f - c g."""
    pairs = itertools.zip_longest(f, g, fillvalue=0)
    return _poly_trim([(a - c * b) % p if p else a - c * b for a, b in pairs])


def _poly_mul(p, f, g):
    prod = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                prod[i + j] += a * b
    return _poly_trim([c % p for c in prod] if p else prod)


def _poly_deriv(p, f):
    return _poly_trim([i * c % p if p else i * c for i, c in enumerate(f)][1:])


def _poly_divmod(p, f, g):
    """Quotient and remainder of f by g, whose leading coefficient is invertible."""
    inv = pow(g[-1], -1, p) if p else _q_inv(g[-1])
    r, d = list(f), len(g) - 1
    q = [0] * max(len(f) - d, 0)
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = r[i + d] * inv % p if p else r[i + d] * inv
        if c:
            r[i:i + d] = [a - c * b for a, b in zip(r[i:i + d], g)]
    return q, _poly_trim([c % p for c in r[:d]] if p else r[:d])


def _poly_gcd(p, f, g):
    """Monic greatest common divisor; f is nonzero."""
    while g:
        g = _poly_monic(p, g)
        f, g = g, _poly_divmod(p, f, g)[1]
    return _poly_monic(p, f)


def _poly_xgcd(p, f, g):
    """(s, t) with s f + t g = 1, deg s < deg g and deg t < deg f, for coprime
    f and g over F_p or Q (extended Euclid)."""
    r0, r1, s0, s1, t0, t1 = f, g, [1], [], [], [1]
    while r1:
        q, r = _poly_divmod(p, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_sub(p, s0, _poly_mul(p, q, s1))
        t0, t1 = t1, _poly_sub(p, t0, _poly_mul(p, q, t1))
    inv = [pow(r0[0], -1, p) if p else _q_inv(r0[0])]
    return _poly_mul(p, inv, s0), _poly_mul(p, inv, t0)


def _poly_powmod(p, base, k, m):
    """base^k mod a monic m of degree >= 1 for k >= 1, by square-and-multiply;
    base itself, unreduced, for k = 1."""
    acc = base
    for bit in bin(k)[3:]:
        acc = _poly_divmod(p, _poly_mul(p, acc, acc), m)[1]
        if bit == "1":
            acc = _poly_divmod(p, _poly_mul(p, acc, base), m)[1]
    return acc


def _prime_field_roots(p, f):
    """Sorted roots in F_p of a polynomial of degree >= 1: g = gcd(f, t^p - t)
    is the product of the distinct linear factors of f, split by `_fp_split`."""
    f = _poly_monic(p, f)
    if p == 2:
        return [r for r, val in ((0, f[0]), (1, sum(f))) if val % 2 == 0]
    g = _poly_gcd(p, f, _poly_sub(p, _poly_powmod(p, [0, 1], p, f), [0, 1]))
    return sorted(-h[0] % p for h in _fp_split(p, g, 1)) if len(g) > 1 else []


def _fp_split(p, g, d):
    """The monic irreducible factors over F_p, p odd, of a monic g, a product of
    distinct ones of degree d, split by gcd(h, u^((p^d - 1)/2) - 1) for u over
    the polynomials of degree >= 1 by their base-p digits (Cantor-Zassenhaus).
    Every residue mod h comes up; for d = 1 the first p, t + a, suffice: for
    roots r != s the values (r + a)/(s + a), a != -s, run over every element
    but 1, and for a non-square one exactly one of r + a, s + a is a square."""
    out, pending = [], [g]
    while pending:
        h = pending.pop()
        if len(h) - 1 == d:
            out.append(h)
            continue
        for a in itertools.count(p):
            u, k = [], a
            while k:
                k, c = divmod(k, p)
                u.append(c)
            w = _poly_gcd(p, h, _poly_sub(p, _poly_powmod(p, u, (p**d - 1) // 2, h), [1]))
            if 1 < len(w) < len(h):
                pending += [w, _poly_divmod(p, h, w)[0]]
                break
    return out


def _fp_factors(p, f):
    """The monic irreducible factors over F_p, p odd, of a monic square-free f:
    distinct-degree splitting by gcd(f, t^(p^d) - t), then `_fp_split`."""
    out, h, d = [], [0, 1], 0  # h = t^(p^d) mod f
    while 2 * d + 2 < len(f):
        d += 1
        h = _poly_powmod(p, h, p, f)
        g = _poly_gcd(p, f, _poly_sub(p, h, [0, 1]))
        if len(g) > 1:
            out += _fp_split(p, g, d)
            f = _poly_divmod(p, f, g)[0]
            h = _poly_divmod(p, h, f)[1]
    return out + [f] if len(f) > 1 else out


_RECOMBINATION_BUDGET = 4096  # factor subsets `_zassenhaus` tries before it gives up


def _q_factors(f):
    """The monic irreducible factors over Q of a square-free polynomial of degree >= 1."""
    den = math.lcm(*(c.denominator for c in f))
    f = [c.numerator * (den // c.denominator) for c in f]
    content = math.gcd(*f)
    return [_poly_monic(0, h) for h in _zassenhaus([c // content for c in f])]


def _zassenhaus(f):
    """The irreducible factors over Z of a primitive square-free f of degree >= 1
    (Zassenhaus 1969; von zur Gathen and Gerhard, Modern Computer Algebra, ch.
    14-16).  f is factored modulo the first odd prime p dividing neither lc(f)
    nor the discriminant; the factors are lifted together, on a balanced
    factor tree (`_hensel`), modulo p^k > 2 B, B = |lc(f)| 2^n ||f||_2
    bounding lc(f) times any monic factor over Q (Mignotte), and the products
    of subsets of them, smallest first, are tried as factors over Z.  Past
    `_RECOMBINATION_BUDGET` subsets it gives up."""
    n, lc = len(f) - 1, f[-1]
    for p in (q for q in itertools.count(3, 2) if _is_prime(q) and lc % q):
        fp = [c % p for c in f]
        if len(_poly_gcd(p, fp, _poly_deriv(p, fp))) == 1:
            break
    facs = _fp_factors(p, _poly_monic(p, fp))
    if len(facs) == 1:
        return [f]
    mod, bound = p, 2 * abs(lc) * 2**n * (math.isqrt(sum(c * c for c in f)) + 1)
    while mod <= bound:
        mod *= p
    lifted, out, used, size, trials = _hensel(f, facs, p, mod), [], set(), 1, 0
    while 2 * size <= len(lifted) - len(used):
        # each subset is tried once: one that failed is no factor of the rest of f either
        for subset in itertools.combinations([i for i in range(len(lifted)) if i not in used], size):
            if not used.isdisjoint(subset):
                continue
            if 2 * size > len(lifted) - len(used):
                break
            trials += 1
            if trials > _RECOMBINATION_BUDGET:
                raise UnsupportedError(f"factoring a polynomial of degree {n} over Q needs "
                                       f"more than {_RECOMBINATION_BUDGET} factor combinations")
            g = [f[-1]]
            for i in subset:
                g = _poly_mul(mod, g, lifted[i])
            g = [c - mod if 2 * c > mod else c for c in g]
            content = math.gcd(*g)
            g = [c // content for c in g]
            if (q := _z_divide(f, g)) is not None:
                out.append(g)
                f = q
                used.update(subset)
        size += 1
    return out + [f]


def _hensel(f, facs, p, mod):
    """The monic lifts modulo mod, a power of p, of the monic factors facs of
    f mod p, which times lc(f) multiply to f mod p, in the order of facs, on
    a balanced factor tree (von zur Gathen and Gerhard, Algorithm 15.17): the
    factors are halved by count, f = lc(f) (first half)(second half) is
    lifted once by `_hensel_lift`, each half is lifted the same way from its
    lifted product, and each leaf is made monic.  Monic lifts of coprime
    factors are unique (Hensel's lemma), so the tree's shape does not matter."""
    def lift(f, facs):
        if len(facs) == 1:
            return [_poly_monic(mod, f)]
        half, g, h = len(facs) // 2, [f[-1] % p], [1]
        for u in facs[:half]:
            g = _poly_mul(p, g, u)
        for u in facs[half:]:
            h = _poly_mul(p, h, u)
        g, h = _hensel_lift(f, g, h, p, mod)
        return lift(g, facs[:half]) + lift(h, facs[half:])
    return lift(f, facs)


def _hensel_lift(f, g, h, p, mod):
    """(g*, h*) with f = g* h* modulo mod, a power of p, g* = g and h* = h mod p,
    and h* monic, from f = g h mod p with g, h coprime and h monic (quadratic
    Hensel steps; von zur Gathen and Gerhard, Algorithm 15.10)."""
    s, t = _poly_xgcd(p, g, h)
    m = p
    while m < mod:
        m = min(m * m, mod)
        e = _poly_sub(m, f, _poly_mul(m, g, h))
        q, r = _poly_divmod(m, _poly_mul(m, s, e), h)
        g = _poly_sub(m, _poly_sub(m, g, _poly_mul(m, t, e), -1), _poly_mul(m, q, g), -1)
        h = _poly_sub(m, h, r, -1)
        if m < mod:  # the last step needs no new s and t
            b = _poly_sub(m, _poly_sub(m, _poly_mul(m, s, g), _poly_mul(m, t, h), -1), [1])
            c, d = _poly_divmod(m, _poly_mul(m, s, b), h)
            s, t = _poly_sub(m, s, d), _poly_sub(m, _poly_sub(m, t, _poly_mul(m, t, b)), _poly_mul(m, c, g))
    return g, h


def _z_divide(f, g):
    """f / g over Z when g divides f, else None."""
    f, d = list(f), len(g) - 1
    q = [0] * (len(f) - d)
    for i in range(len(q) - 1, -1, -1):
        q[i], r = divmod(f[i + d], g[-1])
        if r:
            return None
        for j, b in enumerate(g):
            f[i + j] -= q[i] * b
    return None if any(f) else q
