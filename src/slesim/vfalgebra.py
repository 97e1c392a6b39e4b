"""Exact word calculus for the two driving vector fields.

Words over the alphabet {0, 1} index iterated integrals and operator
compositions: letter 0 stands for the radial drift field (-a/z) d/dz with
a = 2/kappa kept symbolic, letter 1 for the unit horizontal field d/dz
(equal to d/dx on analytic maps).  Applying a word to the identity always
yields a single Laurent monomial c * a^j * z^p with exact rational c, which
is what makes closed-form Taylor stepping possible.  Letters act right to
left: the rightmost letter differentiates first.

The module imports only the standard library, so every other module can
import its parameter checks: ``_check_level`` for truncation levels,
``_check_count`` for integer counts, ``_check_seed`` for seeds, and
``_check_positive`` and ``_check_nonnegative`` for real parameters, and
``_check_kappa`` for a kappa that a = 2/kappa divides by, each rule
stated once; the three integer checks share ``_is_integer_type``, and
the real checks refuse NaN and infinities.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral

__all__ = [
    "LaurentTerm",
    "deg",
    "compose",
    "enumerate_level",
    "eval_term",
    "format_word",
    "parse_word",
    "LEVEL_CAP",
]

Word = tuple  # tuple of letters in {0, 1}

# Word enumeration is exponential; anything above this is a mistake upstream.
LEVEL_CAP = 12


@dataclass(frozen=True)
class LaurentTerm:
    """A single monomial c * a^j * z^p with exact rational coefficient."""

    coeff: Fraction
    a_power: int
    z_power: int

    def is_zero(self) -> bool:
        return self.coeff == 0

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        return f"({self.coeff}) * a^{self.a_power} * z^{self.z_power}"


_ZERO = LaurentTerm(Fraction(0), 0, 0)
_IDENTITY = LaurentTerm(Fraction(1), 0, 1)


def _check_word(word) -> Word:
    word = tuple(word)
    if any(letter not in (0, 1) for letter in word):
        raise ValueError(f"word letters must be 0 or 1, got {word!r}")
    return word


def _is_integer_type(kind: type) -> bool:
    """The one integer rule of the checks below, a rule on types: numpy
    integers are integers, a bool is not, and neither is a float with an
    integer value."""
    return issubclass(kind, Integral) and kind is not bool


def _check_level(r: int) -> None:
    """Refuse a truncation level (a word length) that is not an integer,
    then one outside [0, LEVEL_CAP]."""
    if not _is_integer_type(type(r)):
        raise ValueError(f"truncation level must be an integer, got {r!r}")
    if r < 0:
        raise ValueError(f"truncation level {r} is negative")
    if r > LEVEL_CAP:
        raise ValueError(f"truncation level {r} above cap {LEVEL_CAP}")


def _check_count(name: str, n, minimum: int) -> None:
    """Refuse a count that is not an integer >= minimum."""
    if not (_is_integer_type(type(n)) and n >= minimum):
        raise ValueError(f"{name} must be an integer >= {minimum}, got {n!r}")


def _check_seed(seed) -> int:
    """Refuse a seed that is not an integer.  Any sign and size is a
    seed, as only its low 64 bits count: returns them as an int."""
    if not _is_integer_type(type(seed)):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    return int(seed) & ((1 << 64) - 1)


def _check_positive(name: str, x) -> None:
    """Refuse a real parameter outside 0 < x < inf; NaN is outside too."""
    if not 0.0 < x < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {x!r}")


def _check_kappa(kappa) -> None:
    """Refuse a kappa outside 0 < kappa < inf with ValueError, and one so
    small (below about 1.1e-308) that a = 2 / kappa overflows float64
    with OverflowError, naming kappa and a."""
    _check_positive("kappa", kappa)
    a = 2.0 / float(kappa)
    if a == math.inf:
        raise OverflowError(
            f"a = 2 / kappa overflows float64 at kappa = {kappa!r}, "
            f"a = {a!r}")


def _check_nonnegative(name: str, x) -> None:
    """Refuse a real parameter outside 0 <= x < inf; NaN is outside too."""
    if not 0.0 <= x < math.inf:
        raise ValueError(f"{name} must be nonnegative and finite, got {x!r}")


def deg(word) -> Fraction:
    """Scaling degree m + n/2 (m zeros weighted 1, n ones weighted 1/2).

    This is the exponent in the L^2 scaling t^deg of the word's iterated
    integral, with the dt letter counting a full power and the dB letter
    half a power.
    """
    word = _check_word(word)
    m = word.count(0)
    n = word.count(1)
    return Fraction(2 * m + n, 2)


def compose(word) -> LaurentTerm:
    """Apply the word's operators to the identity map, rightmost first.

    Letter 1 maps c a^j z^p to (c p) a^j z^(p-1); letter 0 maps it to
    (-c p) a^(j+1) z^(p-2).  Starting from Id(z) = z, a word dies exactly
    when some letter 1 leaves a constant for the next letter to kill, which
    happens iff the word has length >= 2 and ends in letter 1.

    Returns:
        LaurentTerm; the zero term has coeff == 0.
    """
    word = _check_word(word)
    term = _IDENTITY
    for letter in reversed(word):
        if term.z_power == 0:
            # derivative of a constant
            return _ZERO
        if letter == 1:
            term = LaurentTerm(term.coeff * term.z_power,
                               term.a_power, term.z_power - 1)
        else:
            term = LaurentTerm(-term.coeff * term.z_power,
                               term.a_power + 1, term.z_power - 2)
    return term


def enumerate_level(r: int) -> list[tuple[Word, LaurentTerm]]:
    """All 2^r words of length r with their composed terms, lexicographic.

    Args:
        r: word length, 0 <= r <= LEVEL_CAP (the cap guards against
            accidental exponential blowups).
    """
    _check_level(r)
    return [(word, compose(word))
            for word in itertools.product((0, 1), repeat=r)]


def format_word(word) -> str:
    """Digit string for CSV and CLI use; the empty word formats as ''."""
    return "".join(str(letter) for letter in _check_word(word))


def parse_word(text: str) -> Word:
    """Inverse of :func:`format_word`."""
    if not all(ch in "01" for ch in text):
        raise ValueError(f"word string must be digits 0/1, got {text!r}")
    return tuple(int(ch) for ch in text)


def eval_term(term: LaurentTerm, z: complex, kappa: float) -> complex:
    """Evaluate c * a^j * z^p at a point, with a = 2/kappa.

    Args:
        term: monomial from :func:`compose`.
        z: evaluation point; must be nonzero when p < 0 (pole).
        kappa: SLE parameter, finite and > 0.

    Returns:
        complex value; exactly 0j for the zero term.

    Raises:
        ValueError: kappa is not finite and > 0.
        OverflowError: a or a^j overflows float64; the message names
            kappa and a (and j).
    """
    _check_kappa(kappa)
    if term.coeff == 0:
        return 0j
    z = complex(z)
    if z == 0 and term.z_power < 0:
        raise ZeroDivisionError("pole: term with negative power evaluated at z = 0")
    a = 2.0 / kappa
    try:
        scale = a ** term.a_power
    except OverflowError:
        raise OverflowError(
            f"a ** j overflows float64 at kappa = {kappa!r}, a = 2 / kappa "
            f"= {a!r}, j = {term.a_power}") from None
    return float(term.coeff) * scale * z ** term.z_power
