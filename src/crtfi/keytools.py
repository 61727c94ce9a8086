"""Key generation, CRT parameter derivation, and private-exponent recovery.

Keys here are deliberately small ("desk scale", 4..64 bit primes) so that
exhaustive fault campaigns stay cheap. The recovery routines rebuild (d, e)
from a bare CRT 5-tuple (p, q, dp, dq, iq) without an extended-Euclid
shortcut: the lcm factorization is obtained by gcd absorption and d by CRT
recombination of the half exponents.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from math import gcd as _gcd
from pathlib import Path

from .modmath import DomainError, is_prime, mod_inv


class KeyError_(DomainError):
    """A key is malformed or missing a required field."""


class MissingKeyField(KeyError_):
    pass


@dataclass(frozen=True)
class RsaKey:
    """Classic RSA key with both totients kept around."""

    p: int
    q: int
    n: int
    e: int
    d: int
    phi: int
    lam: int


@dataclass(frozen=True)
class CrtKey:
    """CRT signing 5-tuple; d, e, n are optional extras."""

    p: int
    q: int
    dp: int
    dq: int
    iq: int
    d: int | None = None
    e: int | None = None
    n: int | None = None

    @property
    def modulus(self) -> int:
        return self.n if self.n is not None else self.p * self.q

    @property
    def lam(self) -> int:
        return (self.p - 1) * (self.q - 1) // _gcd(self.p - 1, self.q - 1)


def _draw_prime(rng: random.Random, bits: int) -> int:
    lo, hi = 1 << (bits - 1), 1 << bits
    while True:
        c = rng.randrange(lo, hi)
        if is_prime(c):
            return c


def gen_key(prime_bits: int, seed: int) -> RsaKey:
    """Generate a key with two distinct primes of exactly prime_bits bits.

    e is the smallest odd value >= 3 coprime to lambda(n); d = e^-1 mod phi(n).
    Deterministic per (prime_bits, seed).
    """
    if not 3 <= prime_bits <= 64:
        raise DomainError(f"prime_bits must be in [3, 64], got {prime_bits}")
    rng = random.Random(seed)
    p = _draw_prime(rng, prime_bits)
    q = _draw_prime(rng, prime_bits)
    while q == p:
        q = _draw_prime(rng, prime_bits)
    phi = (p - 1) * (q - 1)
    lam = phi // _gcd(p - 1, q - 1)
    e = 3
    while _gcd(e, lam) != 1:
        e += 2
    d = mod_inv(e, phi)
    return RsaKey(p=p, q=q, n=p * q, e=e, d=d, phi=phi, lam=lam)


def derive_crt(p: int, q: int, d: int) -> CrtKey:
    """CRT parameters (dp, dq, iq) for a private exponent d."""
    if not (is_prime(p) and is_prime(q)) or p == q:
        raise DomainError(f"p, q must be distinct primes, got {p}, {q}")
    dp = d % (p - 1) if p > 2 else 0
    dq = d % (q - 1) if q > 2 else 0
    iq = mod_inv(q, p)
    return CrtKey(p=p, q=q, dp=dp, dq=dq, iq=iq, d=d, n=p * q)


def check_crt_key(key: CrtKey) -> None:
    """Raise KeyError_ unless key is a consistent CRT signing key.

    p and q must be distinct primes and iq*q = 1 (mod p); when d is known,
    dp = d (mod p-1) and dq = d (mod q-1); when e is known, e*dp = 1
    (mod p-1) and e*dq = 1 (mod q-1); when n is known, n = p*q. Whatever
    is known, some private exponent must fit dp and dq: gcd(dp, p-1) =
    gcd(dq, q-1) = 1 and dp = dq (mod gcd(p-1, q-1)). A key failing any of
    these signs wrongly or names another modulus, so a fault campaign on it
    measures nothing.
    """
    p, q = key.p, key.q
    if not (is_prime(p) and is_prime(q)) or p == q:
        raise KeyError_(f"key p={p}, q={q}: p and q must be distinct primes")
    if key.iq * q % p != 1:
        raise KeyError_(f"key iq={key.iq} is not the inverse of q={q} mod p={p}")
    for name, half, prime in (("dp", key.dp, p), ("dq", key.dq, q)):
        if key.d is not None and (half - key.d) % (prime - 1):
            raise KeyError_(f"key {name}={half} is not d={key.d} mod {prime - 1}")
        if key.e is not None and (key.e * half - 1) % (prime - 1):
            raise KeyError_(f"key e={key.e} is not the inverse of {name}={half} mod {prime - 1}")
        if _gcd(half, prime - 1) != 1:
            raise KeyError_(f"key {name}={half} is not a unit mod {prime - 1}: no e inverts it")
    g = _gcd(p - 1, q - 1)
    if (key.dp - key.dq) % g:
        raise KeyError_(f"key dp={key.dp} and dq={key.dq} differ mod gcd(p-1, q-1)={g}")
    if key.n is not None and key.n != p * q:
        raise KeyError_(f"key N={key.n} is not p*q={p * q}")


def crt_from_rsa(key: RsaKey) -> CrtKey:
    c = derive_crt(key.p, key.q, key.d)
    return replace(c, e=key.e)


def coprime_split(p1: int, q1: int, r1: int) -> tuple[int, int]:
    """Split p1*q1*r1 into two coprime factors (p2, q2) with p2*q2 unchanged.

    Repeatedly absorbs gcd(p2, r2) into p2 and then gcd(q2, r2) into q2;
    whatever remains of r2 is coprime to both and is folded into q2. Each
    absorption strictly divides r2 down, so the loops terminate.
    """
    if min(p1, q1, r1) < 1:
        raise DomainError("coprime_split needs positive operands")
    p2, q2, r2 = p1, q1, r1
    g = _gcd(p2, r2)
    while g != 1:
        p2 *= g
        r2 //= g
        g = _gcd(p2, r2)
    g = _gcd(q2, r2)
    while g != 1:
        q2 *= g
        r2 //= g
        g = _gcd(q2, r2)
    q2 *= r2
    return p2, q2


def recover_d(key: CrtKey) -> int:
    """Rebuild d mod lambda(n) from the CRT 5-tuple alone.

    lambda(n) = lcm(p-1, q-1) is factored into coprime parts (p2, q2) via
    coprime_split; d is then the CRT recombination of (dp mod p2, dq mod q2).
    """
    p, q = key.p, key.q
    g = _gcd(p - 1, q - 1)
    p2, q2 = coprime_split((p - 1) // g, (q - 1) // g, g)
    dp2 = key.dp % p2
    dq2 = key.dq % q2
    i12 = mod_inv(p2, q2) if q2 > 1 else 0
    d = dp2 + p2 * ((i12 * (dq2 - dp2)) % q2)
    return d


def recover_e(key: CrtKey) -> int:
    """Public exponent e = d^-1 mod lambda(n), with d recovered if absent."""
    d = key.d if key.d is not None else recover_d(key)
    return mod_inv(d % key.lam, key.lam)


# a key file's fields in the order written; N is written from the modulus
# and read into n
_FILE_FIELDS = ("p", "q", "dp", "dq", "iq", "e", "d", "N")


def write_key_file(key: CrtKey, path: str | Path) -> None:
    """Serialize a key as one JSON object of decimal-string fields."""
    vals = {name: getattr(key, "modulus" if name == "N" else name) for name in _FILE_FIELDS}
    obj = {name: str(v) for name, v in vals.items() if v is not None}
    Path(path).write_text(json.dumps(obj, indent=2) + "\n")


def read_key_file(path: str | Path) -> CrtKey:
    """Parse a key file; p, q, dp, dq, iq are required, the rest optional.

    A key that fails check_crt_key raises KeyError_.
    """
    try:
        obj = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise KeyError_(f"cannot read key file {path}: {exc}") from None
    if not isinstance(obj, dict):
        raise KeyError_(f"key file {path} must hold one object")
    vals: dict[str, int] = {}
    for name in _FILE_FIELDS:
        if name in obj:
            try:
                vals[name] = int(str(obj[name]), 10)
            except ValueError:
                raise KeyError_(f"field {name!r} is not a decimal string") from None
    for name in ("p", "q", "dp", "dq", "iq"):
        if name not in vals:
            raise MissingKeyField(f"key file {path} lacks field {name!r}")
    key = CrtKey(**{name.lower(): v for name, v in vals.items()})
    check_crt_key(key)
    return key
