"""Number theory (totient, Möbius) and closed-form avoider counts.

Seven pattern pairs of length three have known closed forms for the
number of cyclic avoiders; this module evaluates all of them exactly with
plain integers. The open pair (132,213) is rejected explicitly. Counts
for n below a theorem's stated range use oracle-verified values and are
documented as package conventions, not literature claims.
"""
from __future__ import annotations

import enum
from functools import lru_cache

from .errors import InternalInconsistency, NonPositive, TooSmall, UnsupportedPair


@lru_cache(maxsize=None)
def factorize(z: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization by trial division: ((prime, exponent), ...)."""
    if z < 1:
        raise NonPositive(f"factorization needs z >= 1, got {z}")
    out = []
    d = 2
    while d * d <= z:
        if z % d == 0:
            e = 0
            while z % d == 0:
                z //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if z > 1:
        out.append((z, 1))
    return tuple(out)


def totient(z: int) -> int:
    """Euler's phi: count of 1 <= i < z coprime to z, with phi(1) = 1.

    >>> [totient(z) for z in (1, 5, 12)]
    [1, 4, 4]
    """
    if z < 1:
        raise NonPositive(f"totient needs z >= 1, got {z}")
    result = z
    for p, _ in factorize(z):
        result -= result // p
    return result


def mobius(z: int) -> int:
    """Möbius mu: 0 on squareful z, else (-1)^(number of prime factors).

    >>> [mobius(z) for z in (1, 4, 6)]
    [1, 0, 1]
    """
    if z < 1:
        raise NonPositive(f"mobius needs z >= 1, got {z}")
    factors = factorize(z)
    if any(e > 1 for _, e in factors):
        return 0
    return -1 if len(factors) % 2 else 1


def divisors(z: int) -> list[int]:
    """All positive divisors of z, ascending."""
    if z < 1:
        raise NonPositive(f"divisors needs z >= 1, got {z}")
    divs = [1]
    for p, e in factorize(z):
        divs = [d * p**i for d in divs for i in range(e + 1)]
    return sorted(divs)


class PairFormulaId(enum.Enum):
    """The seven pattern pairs with a closed-form cyclic-avoider count."""

    P123_132 = "123,132"
    P123_231 = "123,231"
    P123_321 = "123,321"
    P132_231 = "132,231"
    P132_321 = "132,321"
    P231_312 = "231,312"
    P231_321 = "231,321"


def pair_id_from_labels(first: str, second: str) -> PairFormulaId:
    """Resolve an unordered pair of pattern labels to its formula id."""
    key = ",".join(sorted((first.strip(), second.strip())))
    try:
        return PairFormulaId(key)
    except ValueError:
        if key == "132,213":
            raise UnsupportedPair(
                "no exact formula is known for the pair (132,213)"
            ) from None
        raise UnsupportedPair(f"no closed form available for the pair ({key})") from None


def count_123_231(n: int) -> int:
    """Cyclic avoiders of both 123 and 231.

    Totient-valued, split on n mod 4; n = 1 and n = 2 both give 1
    (n = 2 is a genuine special case: the residue formula would double
    count it).

    >>> [count_123_231(n) for n in (2, 8, 9, 26)]
    [1, 2, 4, 18]
    """
    if n < 1:
        raise NonPositive(f"count needs n >= 1, got {n}")
    if n <= 2:
        return 1
    if n % 2 == 1:
        return totient((n + 1) // 2)
    if n % 4 == 0:
        return totient(n // 2)
    return totient((n + 2) // 4) + totient(n // 2)


def count_123_132(n: int) -> int:
    """Cyclic avoiders of both 123 and 132: 2^floor((n-1)/2).

    Stated for n >= 3; the n = 1, 2 values (both 1) are oracle-verified
    conventions that happen to coincide with the same expression.
    """
    if n < 1:
        raise NonPositive(f"count needs n >= 1, got {n}")
    return 2 ** ((n - 1) // 2)


def count_132_231(n: int) -> int:
    """Cyclic avoiders of both 132 and 231: a Möbius sum over odd divisors,
    (1/2n) * sum of mu(d) 2^(n/d) over odd d | n.

    >>> [count_132_231(n) for n in (1, 3, 6)]
    [1, 1, 5]
    """
    if n < 1:
        raise NonPositive(f"count needs n >= 1, got {n}")
    total = sum(mobius(d) * 2 ** (n // d) for d in divisors(n) if d % 2 == 1)
    q, r = divmod(total, 2 * n)
    if r:
        raise InternalInconsistency(
            f"odd-divisor Möbius sum {total} not divisible by 2n = {2 * n}"
        )
    return q


# Oracle-verified values below the zero-count thresholds.
_SMALL_123_321 = {1: 1, 2: 1, 3: 2, 4: 2}
_SMALL_231_312 = {1: 1, 2: 1}


def count_trivial_pair(pair: PairFormulaId, n: int) -> int:
    """The four straightforward pairs.

    (123,321) is 0 for n >= 5 (no permutation of length >= 5 avoids both,
    by Erdős–Szekeres); (231,312) is 0 for n >= 3 (avoiders are layered,
    hence involutions); (231,321) has the single witness n 1 2 .. (n-1);
    (132,321) counts the powers of the long cycle 2 3 .. n 1 with exponent
    coprime to n, i.e. phi(n).
    """
    if n < 1:
        raise NonPositive(f"count needs n >= 1, got {n}")
    if pair == PairFormulaId.P123_321:
        return _SMALL_123_321.get(n, 0)
    if pair == PairFormulaId.P231_312:
        return _SMALL_231_312.get(n, 0)
    if pair == PairFormulaId.P231_321:
        return 1
    if pair == PairFormulaId.P132_321:
        return totient(n)
    raise UnsupportedPair(f"{pair} is not one of the trivial pairs")


def pair_count(pair: PairFormulaId, n: int) -> int:
    """Dispatch to the closed form for any supported pair."""
    if pair == PairFormulaId.P123_231:
        return count_123_231(n)
    if pair == PairFormulaId.P123_132:
        return count_123_132(n)
    if pair == PairFormulaId.P132_231:
        return count_132_231(n)
    return count_trivial_pair(pair, n)


def upper_bound_123_231(n: int) -> Fraction:
    """The sharp bound (3n - 6)/4 on count_123_231, valid for n >= 4.

    Attained exactly when n = 4k + 2 with k + 1 and 2k + 1 both prime
    (n = 26 is the smallest example). Exact rational; never compare counts
    against a float.
    """
    if n < 4:
        raise TooSmall(f"the (3n-6)/4 bound is stated for n >= 4, got {n}")
    from fractions import Fraction

    return Fraction(3 * n - 6, 4)


#: The sequences ``export`` writes, by the patterns they avoid: a pair is
#: evaluated by its closed form at any n, a single pattern by the oracle.
OEIS_SEQUENCES = {
    "A309563": ("123", "231"),
    "A309504": ("123",),
    "A309505": ("132",),
    "A309506": ("231",),
    "A309508": ("321",),
}


def format_bfile(pairs) -> str:
    """OEIS b-file text: ASCII lines "n value", newline-terminated, no
    trailing blank line. Byte-stable for identical inputs."""
    return "".join(f"{n} {value}\n" for n, value in pairs)
