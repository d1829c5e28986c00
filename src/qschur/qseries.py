"""Exact arithmetic in Z[q, q^-1] and in formal marker series over it.

Everything downstream of this module computes in the ring of Laurent
polynomials in q with arbitrary-precision integer coefficients, optionally
graded by formal markers A, B (and C).  All arithmetic is exact; there is
no floating point and no rational rounding anywhere in the package.

A LaurentPoly is stored packed, by Kronecker substitution: the polynomial
q^lo * sum_k c_k q^k is kept as lo and the one integer
V = sum_k c_k 2^(B*k), whose balanced base-2^B digits are the
coefficients.  The digit width B is a multiple of 32 and every value
carries a bound with |c_k| <= bound < 2^(B-1), under which (lo, V)
determines the polynomial.  Each operation derives the bound of its
result before forming it (a sum adds the bounds, a product multiplies
them by the shorter operand's length) and widens B when the bound would
not fit, so no digit can carry into the next: sums, products, shifts,
truncations and equality are single big-integer operations, and terms
are decoded only where they are read.  Widening has one route, _at: a
value keeps its last widened form, so a value read again and again at
one wider width, such as a table entry, is re-laid out once.  A sum of
products, sum_of_products, is formed as one packed integer at the one
width its summed bound needs, and sum_equals decides whether such a sum
equals a given value from one packed integer, building no value: at a
width W where both sides' coefficients are below 2^(W-1), the
difference's are below 2^W, so its packed integer is 0 exactly when the
difference is.  Every value
stores the index of its top digit, which the bound makes exact (see
LaurentPoly), so a product's bound and a coefficient read need no
bit_length.

Exact division divides the packed values too.  Evaluating at q = 2^B is
a ring map, so a remainder at any width disproves a quotient.  An exact
packed quotient is the polynomial quotient when its digits times the
divisor's cannot carry at that width; when that proof fails at the
operands' width, the division is redone once at the width that holds
Mignotte's bound on any factor of the dividend, where a failed proof
disproves a quotient as well.

A MarkerSeries keeps its terms through one normalising step, _kept: a
pair past a marker cap is dropped, each coefficient is cut at q_cap, and
the rest are summed per marker tuple with zero sums dropped.  The
constructor, +, * and with_truncation all build their result through it;
a scalar factor becomes a constant series and takes the one product.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from operator import add, le
from typing import Iterable, Iterator, Mapping, Optional, Sequence, Union

__all__ = [
    "LaurentPoly",
    "MarkerSeries",
    "NotDivisible",
    "Truncation",
    "ONE",
    "ZERO",
    "qpow",
]


class NotDivisible(ArithmeticError):
    """No exact Laurent quotient exists (misuse, or a falsified identity)."""


# --------------------------------------------------------------------------
# packed digits
#
# Adding the offset sum_k 2^(B-1) 2^(B*k) to V turns its balanced digits
# c_k into the unsigned digits c_k + 2^(B-1), which one to_bytes exposes.

_WORD = 32


def _width(bound: int) -> int:
    """The narrowest digit width, a multiple of 32, with bound < 2^(width-1)."""
    return (bound.bit_length() // _WORD + 1) * _WORD


def _offset(width: int, n: int, slot: int = 0) -> int:
    """sum_{k<n} 2^(width-1) * 2^(slot*k), with slot defaulting to width."""
    pad = bytes((slot - width) // 8) if slot else b""
    return int.from_bytes((bytes(width // 8 - 1) + b"\x80" + pad) * n, "little")


def _unsigned(v: int, width: int) -> bytes:
    """The offset digits of v as little-endian bytes.  Every integer has
    balanced digits in [-2^(width-1), 2^(width-1)); the
    (v.bit_length() + 1) // width + 1 digits written are all of them, or
    all and one zero digit more."""
    n = (v.bit_length() + 1) // width + 1
    return (v + _offset(width, n)).to_bytes(n * width // 8, "little")


def _balanced(v: int, bits: int) -> int:
    """The residue of v modulo 2^bits that lies in [-2^(bits-1), 2^(bits-1))."""
    half = 1 << (bits - 1)
    return ((v + half) & ((half << 1) - 1)) - half


def _digits(v: int, width: int) -> list[int]:
    """The balanced digits c_0, c_1, ... of v, up to the last nonzero one."""
    if not v:
        return []
    raw = _unsigned(v, width)
    w, half = width // 8, 1 << (width - 1)
    digits = [int.from_bytes(raw[i:i + w], "little") - half
              for i in range(0, len(raw), w)]
    if not digits[-1]:
        digits.pop()
    return digits


def _widened(v: int, width: int, wider: int) -> int:
    """v, packed at ``width``, re-packed at the wider digit width ``wider``."""
    raw = _unsigned(v, width)
    w, step = width // 8, wider // 8
    n = len(raw) // w
    buf = bytearray(n * step)
    for j in range(w):
        buf[j::step] = raw[j::w]
    return int.from_bytes(buf, "little") - _offset(width, n, wider)


class LaurentPoly:
    """A Laurent polynomial in q over the integers.

    Stored packed as (lo, V, width, bound); see the module docstring.
    Exponents may be negative and coefficients are Python ints of any
    size.  Instances are immutable: every operation returns a new value,
    so polynomials can be shared freely and used as cache values.  The
    one slot that changes, _wide, keeps V at the last wider width it was
    read at; it holds the same polynomial, so no value, text or hash
    depends on it.

    The slot _top holds V.bit_length() // W, set once where the value is
    formed; it costs each value 8 bytes.  It is the index n of the top
    digit: if c_n != 0 is the top digit of V = sum_{k<=n} c_k 2^(W k)
    and every |c_k| <= bound < 2^(W-1), then
    |V| >= 2^(W n) - (2^(W-1) - 1) (2^(W n) - 1) / (2^W - 1) > 2^(W n - 1)
    and |V| <= (2^(W-1) - 1) (2^(W (n+1)) - 1) / (2^W - 1) < 2^(W (n+1) - 1),
    so V.bit_length() lies in [W n, W (n+1) - 1] (0 for V = 0).

    Storage is dense: a value takes B/8 bytes (4 or more) for every
    exponent between its lowest and highest term, zero or not, so a
    sparse value such as 1 + q^(10^10) needs 40 GB or more.
    """

    __slots__ = ("_lo", "_v", "_width", "_bound", "_top", "_wide")

    def __init__(self, terms: Union[Mapping[int, int], Iterable[tuple[int, int]]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[int, int] = {}
        for e, c in items:
            if not isinstance(e, int) or not isinstance(c, int):
                raise TypeError("exponents and coefficients must be ints")
            v = acc.get(e, 0) + c
            if v:
                acc[e] = v
            else:
                acc.pop(e, None)
        packed = LaurentPoly._raw(acc)
        self._lo, self._v = packed._lo, packed._v
        self._width, self._bound = packed._width, packed._bound
        self._top = packed._top
        self._wide = None

    @classmethod
    def _raw(cls, terms: dict) -> "LaurentPoly":
        # trusted constructor: terms already normalized (no zero coefficients)
        if not terms:
            return ZERO
        lo = min(terms)
        n = max(terms) - lo + 1
        bound = max(abs(c) for c in terms.values())
        width = _width(bound)
        w, half = width // 8, 1 << (width - 1)
        buf = bytearray((bytes(w - 1) + b"\x80") * n)  # n zero digits, offset
        for e, c in terms.items():
            i = (e - lo) * w
            buf[i:i + w] = (c + half).to_bytes(w, "little")
        v = int.from_bytes(buf, "little") - _offset(width, n)
        return cls._packed(lo, v, width, bound)

    @classmethod
    def _packed(cls, lo: int, v: int, width: int, bound: int) -> "LaurentPoly":
        # trusted constructor: every digit of v is at most bound < 2^(width-1)
        # in size, and the lowest digit is nonzero (or v == 0 and lo == 0)
        self = object.__new__(cls)
        self._lo = lo
        self._v = v
        self._width = width
        self._bound = bound
        self._top = v.bit_length() // width
        self._wide = None
        return self

    @classmethod
    def const(cls, c: int) -> "LaurentPoly":
        if not c:
            return ZERO
        return cls._packed(0, c, _width(abs(c)), abs(c))

    def _at(self, width: int) -> int:
        """V packed at ``width``, no narrower than the value's own width.
        The last widened form is kept, so a value read again and again at
        one wider width, such as a table entry, is re-laid out once."""
        if width == self._width:
            return self._v
        wide = self._wide
        if wide is None or wide[0] != width:
            wide = self._wide = (width, _widened(self._v, self._width, width))
        return wide[1]

    # -- inspection ---------------------------------------------------------

    def coeff(self, exponent: int) -> int:
        v, width = self._v, self._width
        k = exponent - self._lo
        if k < 0 or k > self._top:
            return 0
        if k:
            # round V / 2^bits: the digits below k add up to less than
            # 2^(bits-1) in size
            bits = width * k
            v = (v + (1 << (bits - 1))) >> bits
        return _balanced(v, width)

    def terms(self) -> Iterator[tuple[int, int]]:
        """Iterate (exponent, coefficient) pairs in ascending exponent order."""
        lo = self._lo
        return iter([(lo + k, c) for k, c in enumerate(_digits(self._v, self._width)) if c])

    @property
    def min_exp(self) -> Optional[int]:
        return self._lo if self._v else None

    @property
    def max_exp(self) -> Optional[int]:
        return self._lo + self._top if self._v else None

    def __bool__(self) -> bool:
        return bool(self._v)

    def __len__(self) -> int:
        digits = _digits(self._v, self._width)
        return len(digits) - digits.count(0)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other._v:
            return self
        if not self._v:
            return other
        bound = self._bound + other._bound
        width, a, b = _aligned(self, other, bound)
        gap = other._lo - self._lo
        if gap > 0:
            return LaurentPoly._packed(self._lo, a + (b << width * gap), width, bound)
        if gap < 0:
            return LaurentPoly._packed(other._lo, (a << -width * gap) + b, width, bound)
        # equal lowest exponents: the lowest digits may cancel
        return _stripped(self._lo, a + b, width, bound)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._packed(self._lo, -self._v, self._width, self._bound)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        if not self._v or not other._v:
            return ZERO
        # a product coefficient sums at most min(span) products of
        # coefficients, a span being _top + 1 digits; the lowest digits
        # multiply to the (nonzero) lowest digit
        na, nb = self._top, other._top
        bound = ((na if na < nb else nb) + 1) * self._bound * other._bound
        width, a, b = _aligned(self, other, bound)
        return LaurentPoly._packed(self._lo + other._lo, a * b, width, bound)

    __rmul__ = __mul__

    @classmethod
    def sum_of_products(cls, terms: Sequence[tuple["LaurentPoly", "LaurentPoly", int]]
                        ) -> "LaurentPoly":
        """The sum of q^e a b over the (a, b, e) of ``terms``, a and b
        nonzero, formed as one packed integer at one width W.  It is the
        value, in the same packed state, that adding the products
        (a * b).shifted(e) one at a time to ZERO reaches.

        The bound is the products' bounds added, as + adds them, and W is
        the widest operand's width, or _width(bound) when the bound does
        not fit it: the width those additions reach.  Each operand is read
        at W once, through _at.  Evaluation at q = 2^W is a ring map, so
        V = sum (a b)(2^W) 2^(W (e - lo)) is the sum evaluated there, and
        Python's integer sums are exact, so no intermediate digit needs a
        bound.  Every coefficient of the sum is at most the bound, below
        2^(W-1), so V's balanced digits are those coefficients, and a
        partial sum is zero exactly when its V is.  Adding one at a time
        restarts from ZERO, bound and width too, after a partial sum that
        cancels, so the sum is formed again over the terms after the last
        such cancellation."""
        while terms:
            width, bound, lo = _layout(terms, _WORD)
            v = cancelled = n = 0
            for a, b, e in terms:
                n += 1
                v += ((a._v if a._width == width else a._at(width))
                      * (b._v if b._width == width else b._at(width))) \
                    << width * (a._lo + b._lo + e - lo)
                if not v:
                    cancelled = n
            if not cancelled:
                return _stripped(lo, v, width, bound)
            terms = terms[cancelled:]
        return ZERO

    @classmethod
    def sum_equals(cls, terms: Sequence[tuple["LaurentPoly", "LaurentPoly", int]],
                   value: "LaurentPoly") -> bool:
        """Whether the sum of q^e a b over the (a, b, e) of ``terms``, a and
        b nonzero, equals ``value``: the sum sum_of_products forms, decided
        from one packed integer, building no value.

        W is the widest width among the operands and ``value``, or
        _width(bound) when the products' summed bound, derived as in
        sum_of_products, does not fit it (_layout).  Every coefficient of the sum is
        at most that bound and every coefficient of ``value`` at most its
        own, both below 2^(W-1), so every coefficient d_k of the difference
        has |d_k| < 2^W.  Evaluation at q = 2^W is a ring map, so
        D = sum_k d_k 2^(W k), formed exactly from the operands read at W
        and shifted to the lowest exponent, is the difference evaluated
        there.  If d_m is its lowest nonzero coefficient, then
        D = 2^(W m) (d_m + 2^W r) for an integer r, and 0 < |d_m| < 2^W
        keeps d_m + 2^W r nonzero: D is 0 exactly when the difference is.
        The operands' width alone is not enough: 2^16 * 2^16 and q are
        both 2^32 at q = 2^32."""
        if not terms:
            return not value._v
        width, _, lo = _layout(terms, value._width)
        d = 0
        if value._v:
            if value._lo < lo:
                lo = value._lo
            d = -(value._v if value._width == width else value._at(width)) \
                << width * (value._lo - lo)
        for a, b, e in terms:
            d += ((a._v if a._width == width else a._at(width))
                  * (b._v if b._width == width else b._at(width))) \
                << width * (a._lo + b._lo + e - lo)
        return not d

    def shifted(self, k: int) -> "LaurentPoly":
        """Multiply by q^k."""
        if not k or not self._v:
            return self
        return LaurentPoly._packed(self._lo + k, self._v, self._width, self._bound)

    def dilated(self, power: int) -> "LaurentPoly":
        """Substitute q -> q^power (power >= 1)."""
        if power < 1:
            raise ValueError("dilation power must be >= 1")
        if power == 1:
            return self
        return LaurentPoly._raw({e * power: c for e, c in self.terms()})

    def truncated(self, q_cap: int) -> "LaurentPoly":
        """Drop terms with exponent above q_cap."""
        keep = q_cap - self._lo + 1  # digits kept
        if not self._v or self._top < keep:
            return self
        if keep <= 0:
            return ZERO
        return LaurentPoly._packed(self._lo, _balanced(self._v, self._width * keep),
                                   self._width, self._bound)

    def divide_exact(self, other: "LaurentPoly") -> "LaurentPoly":
        """Return c with c * other == self, raising NotDivisible otherwise."""
        other = _coerce(other)
        if not other:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self:
            return ZERO
        off = self._lo - other._lo
        # Divide the packed values.  A remainder disproves a quotient.  If
        # the division is exact and the quotient's digits q_k are small
        # enough that q * other cannot carry at this width, then q * other
        # has the same value and the same digits as self, so q is the
        # quotient.  If that proof fails, divide once more at a width that
        # holds Mignotte's bound |q_k| <= 2^deg(q) * sum |self_k| times the
        # proof's other factors, min(len) * max |other_k|: a true quotient
        # passes the proof there, so a failure there disproves it.
        width, a, b = _aligned(self, other, 0)
        for first in (True, False):
            v, rem = divmod(a, b)
            if rem:
                break
            digits, divisor = _digits(v, width), _digits(b, width)
            top = max(map(abs, divisor))
            if not (min(len(digits), len(divisor)) * max(map(abs, digits)) * top) \
                    >> (width - 1):
                return LaurentPoly._raw({k + off: c for k, c in enumerate(digits) if c})
            if first:
                dividend = _digits(self._v, self._width)
                deg = max(len(dividend) - len(divisor), 0)
                mignotte = (sum(map(abs, dividend)) << deg) * min(deg + 1, len(divisor)) * top
                width, a, b = _aligned(self, other, mignotte)
        raise NotDivisible("no exact Laurent quotient")

    def evaluate(self, q0: Union[int, Fraction]) -> Fraction:
        """Evaluate at a nonzero rational point; the exactness oracle for tests."""
        x = Fraction(q0)
        if x == 0 and self.min_exp is not None and self.min_exp < 0:
            raise ZeroDivisionError("negative exponents cannot be evaluated at 0")
        return sum((c * x ** e for e, c in self.terms()), Fraction(0))

    # -- comparison / hashing -----------------------------------------------

    def __eq__(self, other) -> bool:
        if other is self:
            return True
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self._lo != other._lo:
            return False
        _, a, b = _aligned(self, other, 0)
        return a == b

    def __hash__(self) -> int:
        digits = _digits(self._v, self._width)
        # constants hash like the ints they equal
        if self._lo == 0 and len(digits) <= 1:
            return hash(self._v)
        return hash((self._lo, tuple(digits)))

    # -- canonical text -----------------------------------------------------

    def __str__(self) -> str:
        return _text([("", self)])

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"

    _TERM_RE = re.compile(
        r"^(?:(?P<num>\d+)|(?:(?P<coeff>\d+)\*)?q(?:\^(?P<exp>-?\d+))?)$")

    @classmethod
    def parse(cls, text: str) -> "LaurentPoly":
        """Parse the canonical text rendering produced by ``str``.

        The result is stored densely (see the class docstring), so text
        whose exponents lie far apart, such as ``1 + q^10000000000``,
        costs memory in proportion to that distance.
        """
        s = text.strip()
        if s == "0":
            return ZERO
        s = s.replace(" - ", " + -").replace(" + ", "\x00")
        terms = []
        for chunk in s.split("\x00"):
            chunk = chunk.strip()
            sign = 1
            if chunk.startswith("-"):
                sign, chunk = -1, chunk[1:]
            m = cls._TERM_RE.match(chunk)
            if m is None:
                raise ValueError(f"cannot parse polynomial term {chunk!r}")
            if m.group("num") is not None:
                terms.append((0, sign * int(m.group("num"))))
            else:
                coeff = int(m.group("coeff") or 1)
                exp = int(m.group("exp") if m.group("exp") is not None else 1)
                terms.append((exp, sign * coeff))
        return cls(terms)


def _coerce(value) -> "LaurentPoly":
    if isinstance(value, LaurentPoly):
        return value
    if isinstance(value, int):
        return LaurentPoly.const(value)
    return NotImplemented


def _text(terms: Iterable[tuple[str, LaurentPoly]]) -> str:
    """The canonical text of a sum of (marker, polynomial) terms, one
    join over all of them: each nonzero coefficient c of q^e is written
    [|c|*][marker*]q^e with signs between the terms, leaving out an empty
    marker, q^0, and |c| = 1 unless nothing else is written."""
    pieces = []
    for marker, poly in terms:
        head = marker + "*" if marker else ""
        lo = poly._lo
        for k, c in enumerate(_digits(poly._v, poly._width)):
            if not c:
                continue
            e = lo + k
            pieces.append(" - " if c < 0 else " + ")
            mag = -c if c < 0 else c
            if e:
                qpart = "q" if e == 1 else f"q^{e}"
                pieces.append(head + qpart if mag == 1 else f"{mag}*{head}{qpart}")
            elif marker:
                pieces.append(marker if mag == 1 else f"{mag}*{marker}")
            else:
                pieces.append(str(mag))
    if not pieces:
        return "0"
    pieces[0] = "-" if pieces[0] == " - " else ""
    return "".join(pieces)


def _aligned(a: LaurentPoly, b: LaurentPoly, bound: int) -> tuple[int, int, int]:
    """The digit width for a result of a and b whose digits are at most
    bound, with the V of a and of b at that width."""
    width = a._width if a._width >= b._width else b._width
    if bound >> (width - 1):
        width = _width(bound)
    va = a._v if a._width == width else a._at(width)
    vb = b._v if b._width == width else b._at(width)
    return width, va, vb


def _layout(terms: Sequence[tuple[LaurentPoly, LaurentPoly, int]],
            width: int) -> tuple[int, int, int]:
    """The digit width, bound and lowest exponent of a sum of the products
    q^e a b over the (a, b, e) of ``terms``, nonempty.  The bound is the
    products' bounds, each as * derives it, added as + adds them; the
    width is the widest of ``width`` and the operands' widths, or
    _width(bound) when the bound does not fit it."""
    bound, lo = 0, None
    for a, b, e in terms:
        wa, wb, na, nb = a._width, b._width, a._top, b._top
        bound += ((na if na < nb else nb) + 1) * a._bound * b._bound
        if wa > width:
            width = wa
        if wb > width:
            width = wb
        low = a._lo + b._lo + e
        if lo is None or low < lo:
            lo = low
    if bound >> (width - 1):
        width = _width(bound)
    return width, bound, lo


def _stripped(lo: int, v: int, width: int, bound: int) -> LaurentPoly:
    """The value q^lo V, whose lowest digits may have cancelled: they are
    dropped and lo raised past them."""
    if not v:
        return ZERO
    if not v & ((1 << width) - 1):
        k = ((v & -v).bit_length() - 1) // width
        v >>= width * k
        lo += k
    return LaurentPoly._packed(lo, v, width, bound)


ZERO = LaurentPoly._packed(0, 0, _WORD, 0)
ONE = LaurentPoly.const(1)


def qpow(exponent: int, coeff: int = 1) -> LaurentPoly:
    """The monomial coeff * q^exponent."""
    return LaurentPoly.const(coeff).shifted(exponent)


# --------------------------------------------------------------------------
# marker series


@dataclass(frozen=True)
class Truncation:
    """Explicit truncation caps for a MarkerSeries.

    ``marker_caps`` bounds the exponent of each marker position,
    ``q_cap`` bounds the q-exponent.  ``None`` anywhere means "no cap".
    Mixing two series combines caps by taking the minimum.
    """

    marker_caps: Optional[tuple[int, ...]] = None
    q_cap: Optional[int] = None

    @staticmethod
    def merge(a: Optional["Truncation"], b: Optional["Truncation"]) -> Optional["Truncation"]:
        if a is None:
            return b
        if b is None:
            return a
        if a.marker_caps is None:
            caps = b.marker_caps
        elif b.marker_caps is None:
            caps = a.marker_caps
        else:
            caps = tuple(min(x, y) for x, y in zip(a.marker_caps, b.marker_caps))
        if a.q_cap is None:
            qc = b.q_cap
        elif b.q_cap is None:
            qc = a.q_cap
        else:
            qc = min(a.q_cap, b.q_cap)
        return Truncation(caps, qc)


_MARKER_NAMES = ("A", "B", "C")


def _kept(pairs: Iterable[tuple[tuple[int, ...], LaurentPoly]],
          trunc: Optional[Truncation]) -> dict[tuple[int, ...], LaurentPoly]:
    """The coefficients a series keeps of (marker tuple, LaurentPoly)
    pairs: a pair past a marker cap is dropped, each polynomial is cut at
    q_cap, and the rest are summed per tuple, zero sums dropped.  Every
    MarkerSeries result is built through this one step."""
    caps = trunc.marker_caps if trunc is not None else None
    q_cap = trunc.q_cap if trunc is not None else None
    acc: dict[tuple[int, ...], LaurentPoly] = {}
    for exps, poly in pairs:
        if caps is not None and not all(map(le, exps, caps)):
            continue
        if q_cap is not None:
            poly = poly.truncated(q_cap)
        prev = acc.get(exps)
        acc[exps] = poly if prev is None else prev + poly
    return {exps: poly for exps, poly in acc.items() if poly}


def _tuple_key(exps: tuple[int, ...]) -> tuple:
    # total marker degree first, then alphabetically by marker (A before B)
    return (sum(exps), tuple(-e for e in exps))


class MarkerSeries:
    """A polynomial (or explicitly truncated series) in formal markers.

    Coefficients are LaurentPoly values keyed by the marker exponent
    tuple: (i, j) for two markers A, B, or (i, j, k) for A, B, C.  Marker
    exponents are nonnegative.  Values are immutable and operations are
    pure; terms beyond the declared truncation caps are dropped on
    construction, and mixing two series takes the minimum of their caps.
    """

    __slots__ = ("_arity", "_coeffs", "_trunc")

    def __init__(self, arity: int,
                 coeffs: Union[Mapping[tuple[int, ...], Union[LaurentPoly, int]],
                               Iterable[tuple[tuple[int, ...], Union[LaurentPoly, int]]]] = (),
                 truncation: Optional[Truncation] = None):
        if arity not in (2, 3):
            raise ValueError("arity must be 2 or 3")
        if truncation is not None and truncation.marker_caps is not None \
                and len(truncation.marker_caps) != arity:
            raise ValueError("marker_caps length must equal the arity")
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        pairs = []
        for exps, poly in items:
            exps = tuple(exps)
            if len(exps) != arity or any(e < 0 for e in exps):
                raise ValueError(f"bad marker exponent tuple {exps!r}")
            poly = _coerce(poly)
            if poly is NotImplemented:
                raise TypeError("coefficients must be LaurentPoly or int")
            pairs.append((exps, poly))
        self._arity = arity
        self._coeffs = _kept(pairs, truncation)
        self._trunc = truncation

    @classmethod
    def _raw(cls, arity: int, coeffs: dict, trunc: Optional[Truncation]) -> "MarkerSeries":
        self = object.__new__(cls)
        self._arity = arity
        self._coeffs = coeffs
        self._trunc = trunc
        return self

    @classmethod
    def zero(cls, arity: int = 2, truncation: Optional[Truncation] = None) -> "MarkerSeries":
        return cls._raw(arity, {}, truncation)

    @classmethod
    def one(cls, arity: int = 2, truncation: Optional[Truncation] = None) -> "MarkerSeries":
        return cls(arity, {(0,) * arity: ONE}, truncation)

    @classmethod
    def term(cls, exps: Sequence[int], poly: Union[LaurentPoly, int],
             truncation: Optional[Truncation] = None) -> "MarkerSeries":
        exps = tuple(exps)
        return cls(len(exps), {exps: poly}, truncation)

    # -- inspection ---------------------------------------------------------

    @property
    def arity(self) -> int:
        return self._arity

    @property
    def truncation(self) -> Optional[Truncation]:
        return self._trunc

    def coeff(self, exps: Sequence[int]) -> LaurentPoly:
        """The stored LaurentPoly at a marker tuple, or zero if absent."""
        return self._coeffs.get(tuple(exps), ZERO)

    def terms(self) -> Iterator[tuple[tuple[int, ...], LaurentPoly]]:
        """Iterate (marker tuple, coefficient) in canonical order."""
        return iter(sorted(self._coeffs.items(), key=lambda kv: _tuple_key(kv[0])))

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __len__(self) -> int:
        return len(self._coeffs)

    # -- arithmetic ---------------------------------------------------------

    def _check_arity(self, other: "MarkerSeries"):
        if self._arity != other._arity:
            raise ValueError("cannot mix series with different marker arities")

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_arity(other)
        trunc = Truncation.merge(self._trunc, other._trunc)
        return MarkerSeries._raw(
            self._arity, _kept([*self._coeffs.items(), *other._coeffs.items()], trunc), trunc)

    __radd__ = __add__

    def __neg__(self):
        return MarkerSeries._raw(
            self._arity, {e: -p for e, p in self._coeffs.items()}, self._trunc)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_arity(other)
        trunc = Truncation.merge(self._trunc, other._trunc)
        caps = trunc.marker_caps if trunc is not None else None
        # a pair past the marker caps is skipped before it is multiplied;
        # _kept would drop its product anyway
        pairs = ((exps, p1 * p2)
                 for e1, p1 in self._coeffs.items() for e2, p2 in other._coeffs.items()
                 for exps in [tuple(map(add, e1, e2))]
                 if caps is None or all(map(le, exps, caps)))
        return MarkerSeries._raw(self._arity, _kept(pairs, trunc), trunc)

    __rmul__ = __mul__

    def _coerce(self, value):
        if isinstance(value, MarkerSeries):
            return value
        if isinstance(value, (int, LaurentPoly)):
            poly = _coerce(value)
            return MarkerSeries(self._arity, {(0,) * self._arity: poly})
        return NotImplemented

    def shifted(self, k: int, exps: Sequence[int]) -> "MarkerSeries":
        """The series times q^k and the marker monomial of exponents
        ``exps``, within the caps."""
        return MarkerSeries._raw(self._arity, _kept(
            ((tuple(map(add, e, exps)), poly.shifted(k)) for e, poly in self._coeffs.items()),
            self._trunc), self._trunc)

    def with_truncation(self, truncation: Optional[Truncation]) -> "MarkerSeries":
        """Re-cap the series (terms beyond the new caps are dropped)."""
        return MarkerSeries(self._arity, self._coeffs, truncation)

    def dilate(self, q_power: int, shifts: Sequence[int]) -> "MarkerSeries":
        """Apply q -> q^q_power together with a per-marker q-shift.

        A term A^i B^j [C^k] q^e becomes A^i B^j [C^k] q^{q_power*e + i*sA
        + j*sB [+ k*sC]}.  The series must not carry a q-cap (a capped
        series is only known up to its cap, and dilation would move the
        horizon).
        """
        shifts = tuple(shifts)
        if len(shifts) != self._arity:
            raise ValueError("one shift per marker required")
        if q_power < 1:
            raise ValueError("dilation power must be >= 1")
        if self._trunc is not None and self._trunc.q_cap is not None \
                and (q_power != 1 or any(shifts)):
            raise ValueError("cannot dilate a q-truncated series")
        out = {}
        for exps, poly in self._coeffs.items():
            shift = sum(e * s for e, s in zip(exps, shifts))
            out[exps] = poly.dilated(q_power).shifted(shift)
        return MarkerSeries._raw(self._arity, out, self._trunc)

    # -- comparison ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        # deliberately strict: no scalar coercion here, so that equality
        # stays transitive across series of different arities
        if not isinstance(other, MarkerSeries):
            return NotImplemented
        return self._arity == other._arity and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash((self._arity, frozenset(self._coeffs.items())))

    # -- canonical text and JSON --------------------------------------------

    def __str__(self) -> str:
        return _text(("*".join(name if e == 1 else f"{name}^{e}"
                               for name, e in zip(_MARKER_NAMES, exps) if e), poly)
                     for exps, poly in self.terms())

    def __repr__(self) -> str:
        return f"MarkerSeries({self})"

    def to_json_dict(self) -> dict:
        trunc = None
        if self._trunc is not None:
            trunc = {
                "marker_caps": list(self._trunc.marker_caps)
                if self._trunc.marker_caps is not None else None,
                "q_cap": self._trunc.q_cap,
            }
        return {
            "markers": "".join(_MARKER_NAMES[: self._arity]),
            "truncation": trunc,
            "terms": [{"m": list(exps), "c": str(poly)} for exps, poly in self.terms()],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "MarkerSeries":
        arity = len(data["markers"])
        trunc = None
        if data.get("truncation") is not None:
            caps = data["truncation"].get("marker_caps")
            trunc = Truncation(tuple(caps) if caps is not None else None,
                               data["truncation"].get("q_cap"))
        coeffs = {tuple(t["m"]): LaurentPoly.parse(t["c"]) for t in data["terms"]}
        return cls(arity, coeffs, trunc)

