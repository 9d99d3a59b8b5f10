"""Exact truncated formal power series over arbitrary-precision integers.

A series is a dense coefficient vector for q^0 .. q^N with an inclusive
truncation order N, and every stored coefficient is exact.  The generating
functions invert a sparse theta series (`invert`, which keeps the order);
the family fold in families.py packs its own coefficient windows and hands
back TruncatedSeries; the verifiers and the CLI read coefficients, cut
prefixes (`truncate`) and serialize (`to_json_dict`, `format_series`).  The
one product, series times series at the smaller of the two orders, serves
the literal nested sum `families.a_k_directsum` and the test suite.

All values are immutable and all operations are pure, so everything here is
safe to share across threads.  `_Record`, the base of TruncatedSeries, is
also the base of the package's other records (the family, the verification
report and its mismatch, and the brute-force result).

`_CoveringStore` caches `p3_series`, `overpartition_series`,
`compute_A_family`, `compute_C_family` and the verifiers' checks, whose
requests overlap: a request is cut out of any kept value of its slot that
covers it, and a miss builds what its key names.  The store of checks keeps
a slot per family and k, the others one slot.  partitions.py, families.py
and identities.py each supply one store kind.  `_check_param` is the package's
one check that a count argument (an order, a member index, a cap) is a
non-negative int: a bool, a float or any other class is refused.
"""

from __future__ import annotations

import functools
import threading
from collections import namedtuple
from collections.abc import Iterator

# Sets a field of a record, past the __setattr__ that refuses assignment.
_setfield = object.__setattr__


def _check_param(name: str, value: int | None) -> None:
    # The package's one check of a count argument: an order, a member index,
    # a cap.  Only an int passes: a True k would otherwise run as 1 and be
    # reported as true, and a float N as 3.5.  None marks a parameter the
    # caller does not take.  One value per call and one class test: it runs
    # on every store request and sigma call, and collecting keyword
    # arguments would double its cost.
    if value.__class__ is not int:
        if value is None:
            return
        raise TypeError(f"{name} must be an int, not {value.__class__.__name__}")
    if value < 0:
        raise ValueError(f"{name} must be non-negative")


class _Record:
    """Base of the package's immutable records.  A record's fields are its
    class's __slots__, in constructor order, each set once by its __init__
    through _setfield.  Equality holds between records of one class with
    equal fields, any other operand gets NotImplemented, and the hash is the
    fields'.  Assigning or deleting a field raises AttributeError.  Pickle
    and copy rebuild a record by calling its class with its fields, so the
    constructor's checks run again."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._fields()

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({body})"


class TruncatedSeries(_Record):
    """Series in q truncated at order N; coeffs[i] is the coefficient of q^i."""

    __slots__ = ("coeffs", "truncation_order")

    def __init__(self, coeffs: tuple[int, ...], truncation_order: int) -> None:
        # every cut of a kept series or family constructs one, so these two
        # checks stay inline rather than a call of _check_param
        if truncation_order.__class__ is not int:
            raise TypeError(
                f"truncation order must be an int, not {truncation_order.__class__.__name__}"
            )
        if truncation_order < 0:
            raise ValueError("truncation order must be non-negative")
        if len(coeffs) != truncation_order + 1:
            raise ValueError(
                f"need exactly {truncation_order + 1} coefficients, got {len(coeffs)}"
            )
        _setfield(self, "coeffs", coeffs)
        _setfield(self, "truncation_order", truncation_order)

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls((0,) * (order + 1), order)

    @classmethod
    def one(cls, order: int) -> "TruncatedSeries":
        return cls((1,) + (0,) * order, order)

    def coefficient(self, n: int) -> int:
        """Coefficient of q^n; n must lie in the exact range 0..N."""
        if not 0 <= n <= self.truncation_order:
            raise IndexError(f"exponent {n} outside exact range 0..{self.truncation_order}")
        return self.coeffs[n]

    def truncate(self, order: int) -> "TruncatedSeries":
        """Restrict to a smaller truncation order, or to the same (itself)."""
        if order == self.truncation_order:
            return self
        if order > self.truncation_order:
            raise ValueError("cannot extend a truncated series")
        return TruncatedSeries(self.coeffs[: order + 1], order)

    def nonzero_terms(self) -> Iterator[tuple[int, int]]:
        return ((i, c) for i, c in enumerate(self.coeffs) if c)

    # -- arithmetic ------------------------------------------------------------

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        order = min(self.truncation_order, other.truncation_order)
        a = self.coeffs[: order + 1]
        b = other.coeffs[: order + 1]
        # schoolbook convolution; outer loop over the sparser operand
        na = sum(1 for c in a if c)
        nb = sum(1 for c in b if c)
        if nb < na:
            a, b = b, a
        out = [0] * (order + 1)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j in range(order + 1 - i):
                bj = b[j]
                if bj:
                    out[i + j] += ai * bj
        return TruncatedSeries(tuple(out), order)

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse; requires constant term +1 or -1 so the
        inverse stays integral.  b_n = -a_0 * sum_{i>=1} a_i b_{n-i}."""
        a = self.coeffs
        a0 = a[0]
        if a0 not in (1, -1):
            raise ValueError(f"constant term {a0} is not a unit over the integers")
        n = self.truncation_order
        nz = [(i, a[i]) for i in range(1, n + 1) if a[i]]
        b = [a0] + [0] * n
        for m in range(1, n + 1):
            acc = 0
            for i, ai in nz:
                if i > m:
                    break
                acc += ai * b[m - i]
            if acc:
                b[m] = -a0 * acc
        return TruncatedSeries(tuple(b), n)

    # -- presentation and serialization --------------------------------------

    def __str__(self) -> str:
        return format_series(self)

    def __repr__(self) -> str:
        body = format_series(self, max_terms=6)
        return f"TruncatedSeries({body!r}, order={self.truncation_order})"

    def to_json_dict(self) -> dict:
        """CLI wire form: coefficients as decimal strings (they outgrow 64 bits)."""
        return {
            "truncation": self.truncation_order,
            "coeffs": [str(c) for c in self.coeffs],
        }


def format_series(ts: TruncatedSeries, max_terms: int | None = None) -> str:
    """Human form: '1 - 3q + 5q^3 - 7q^6'."""
    parts: list[str] = []
    shown = 0
    for i, c in ts.nonzero_terms():
        if max_terms is not None and shown == max_terms:
            parts.append("+ ...")
            break
        mag = abs(c)
        if i == 0:
            term = str(mag)
        else:
            head = "" if mag == 1 else str(mag)
            term = f"{head}q" if i == 1 else f"{head}q^{i}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
        shown += 1
    if not parts:
        return "0"
    return " ".join(parts)


def geometric_square(s: int, order: int) -> TruncatedSeries:
    """q^s/(1-q^s)^2 = sum_{m>=1} m q^(m s), truncated."""
    if s < 1:
        raise ValueError("part size must be positive")
    c = [0] * (order + 1)
    m = 1
    while m * s <= order:
        c[m * s] = m
        m += 1
    return TruncatedSeries(tuple(c), order)


CacheInfo = namedtuple("CacheInfo", ["hits", "misses", "maxsize", "currsize"])


class _CoveringStore:
    """The values `build` returned, each kept under its key in its slot and
    cut to serve any request of that slot whose key it covers; within a slot
    the newest goes first.  A hit only counts and cuts.  A miss builds what
    the request's key names, drops the kept values of its slot that the new
    one covers, and puts the new one first.  A store kind supplies
    `check(*args)`, which refuses bad arguments before any lookup and
    returns the request's slot and key, `covers(kept_key, key)` and
    `cut(value, key)`, which returns the value itself for its own key.  Each
    slot keeps at most `maxsize` values, the oldest going first.  The
    bookkeeping is under a lock, so one store is safe to share across
    threads."""

    def __init__(self, build, check, covers, cut, maxsize) -> None:
        # the build's __dict__ is empty, and leaving this one unread keeps the
        # attributes inline, which keeps the hit path's reads fast
        functools.update_wrapper(self, build, updated=())
        self._build = build
        self._check = check
        self._covers = covers
        self._cut = cut
        self._maxsize = maxsize
        self._kept: dict = {}  # slot -> [(key, value)], newest first
        self._hits = self._misses = 0
        self._lock = threading.Lock()

    def __call__(self, *args, **kwargs):
        slot, key = self._check(*args, **kwargs)
        covers = self._covers
        # acquire and release cost half what `with` does on this path
        self._lock.acquire()
        try:
            kept = self._kept.get(slot, ())
            for kept_key, value in kept:
                if covers(kept_key, key):
                    self._hits += 1
                    return self._cut(value, key)
            self._misses += 1
        finally:
            self._lock.release()
        value = self._build(*args, **kwargs)
        with self._lock:
            kept = self._kept.get(slot, [])
            # another thread may have kept a cover of this build meanwhile
            if not any(covers(kept_key, key) for kept_key, _ in kept):
                kept = [entry for entry in kept if not covers(key, entry[0])]
                self._kept[slot] = [(key, value)] + kept[: self._maxsize - 1]
        return value

    def cache_info(self) -> CacheInfo:
        """Hits, misses (builds), the bound per slot and the values kept in all."""
        with self._lock:
            currsize = sum(map(len, self._kept.values()))
            return CacheInfo(self._hits, self._misses, self._maxsize, currsize)

    def cache_clear(self) -> None:
        with self._lock:
            self._kept = {}
            self._hits = self._misses = 0
