"""Homotopy path algebra toolkit.

Finite acyclic quivers with cancellative path congruences, their geometric
realizations, cellular bimodule resolutions, discrete Morse minimization,
Tor/Koszul invariants, and toric constructions from integer weight data.

The coefficient-ring selectors and the base class of unreadable-input errors
live here rather than in a layer, so that the command line can parse
`--ring` and map errors to exit codes without loading any layer.
"""

__version__ = "0.1.0"


class UsageError(ValueError):
    """Input in a form that cannot be read (a malformed quiver document or
    matching file); the command line exits 2 on it."""


RING_Z = ('Z',)
RING_Q = ('Q',)

# Miller-Rabin with the prime bases up to 41 decides primality exactly
# below this bound (Sorenson and Webster, 2015)
FP_LIMIT = 3317044064679887385961981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def ring_fp(p):
    return ('Fp', p)


def _is_prime(n):
    """Deterministic Miller-Rabin for 2 <= n < FP_LIMIT."""
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def parse_ring(text):
    """Ring selector: 'Z', 'Q', 'Fp:7' (or the shorthand 'F7').  p is
    written in ASCII decimal digits only, and the prime must lie below
    FP_LIMIT, where its primality test is exact."""
    t = text.strip()
    if t == 'Z':
        return RING_Z
    if t == 'Q':
        return RING_Q
    if t.startswith('Fp:'):
        digits = t[3:]
    elif t.startswith('F'):
        digits = t[1:]
    else:
        digits = ''
    # str.isdigit alone admits other scripts' digits, and int() reads '1_0'
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"unknown ring {text!r} (want Z, Q or Fp:<p>)")
    p = int(digits)
    if p >= FP_LIMIT:
        raise ValueError(f"{p} is too large (p must be below {FP_LIMIT})")
    if p < 2 or not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    return ring_fp(p)


def ring_name(ring):
    return ring[0] if ring[0] != 'Fp' else f"Fp:{ring[1]}"
