"""Builders for the CRT-RSA signing variants under study.

Each builder compiles one published hardening scheme (or its deliberate
absence) into a straight-line Program for a FIXED key, so the fault engine
can enumerate every write, read, and skip site. Shared conventions:

  * all derived quantities (extended moduli, totients, reduced exponents,
    inverse constants) are computed by in-trace instructions, hence faultable;
  * extended-modulus draws happen per run through DrawRandomPrime sites except
    where a scheme needs build-time invertibility screening (see blomer);
  * recombination is the Garner form lo + q*((iq*(hi-lo)) mod m);
  * blocks that schemes share are written once: _checked_widening (fixed-shamir,
    aumuller), _joye_rings (joye, ciet-joye), _vigilant_half (both Vigilants);
  * meta.output_tail marks the post-verification instructions that merely
    assemble the released value; faulting those is output replacement, not an
    attack on the scheme, so campaigns exclude them.

Register glossary: spp/sqq hold the extended-ring signature halves, spr/sqr
the small-ring checksums, sp/sq the retrieved CRT halves, s the released
signature.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import gcd
from typing import Callable

from . import keytools
from .circuit import Program, ProgramBuilder
from .keytools import CrtKey
from .modmath import is_prime
from .transforms import to_infective


class UnsatisfiableRandom(ValueError):
    """No admissible random draw exists within the retry budget."""


@dataclass(frozen=True)
class CatalogEntry:
    algo: str
    family: str  # shamir | giraud | none
    style: str  # test-based | infective | none
    claimed_order: int
    broken_at: int | None  # fault order at which a structural break is known
    builder: Callable[[CrtKey, int, int], Program] = field(repr=False, compare=False)


def catalog() -> tuple[CatalogEntry, ...]:
    return tuple(_CATALOG.values())


def catalog_entry(algo: str) -> CatalogEntry:
    try:
        return _CATALOG[algo]
    except KeyError:
        raise ValueError(f"unknown algo id {algo!r}") from None


def _d_of(key: CrtKey) -> int:
    return key.d if key.d is not None else keytools.recover_d(key)


def program_inputs(program: Program, key: CrtKey, message: int) -> dict[str, int]:
    """Input map for executing a built program on one message."""
    pool = {
        "M": message,
        "p": key.p,
        "q": key.q,
        "dp": key.dp,
        "dq": key.dq,
        "iq": key.iq,
    }
    out = {}
    for name in program.inputs:
        out[name] = _d_of(key) if name == "d" else pool[name]
    return out


# ------------------------------------------------------------------- builders


_CRT_INPUTS = ("M", "p", "q", "dp", "dq", "iq")
_D_INPUTS = ("M", "p", "q", "d", "iq")


def _loaded(name: str, inputs: tuple[str, ...]) -> ProgramBuilder:
    """A builder for `name` with each input loaded in order, M into register m."""
    b = ProgramBuilder(name, inputs)
    for x in inputs:
        b.inp("m" if x == "M" else x, x)
    return b


def _reduced_exponent(b: ProgramBuilder, x: str, r: str, dreg: str) -> None:
    """d{x}{x} = dreg mod phi(x*r), for the prime x and the widened x{x} = x*r.

    phi(x*r) is written as x*r - x - r + 1: an additive fault anywhere in
    the chain shifts the residue mod r-1, so a wrong reduced exponent can
    never slip past the mod-r comparison by staying congruent there.
    """
    b.sub(f"t{x}1", f"{x}{x}", x)
    b.sub(f"t{x}2", f"t{x}1", r)
    b.add(f"phi{x}", f"t{x}2", b.one())
    b.reduce(f"d{x}{x}", dreg, f"phi{x}")


def _checked_widening(b: ProgramBuilder, r_bits: int, dp: str, dq: str) -> None:
    """Draw r, widen pp = p*r and qq = q*r, check that each is 0 mod its prime,
    and reduce the exponent registers dp and dq into dpp and dqq."""
    b.set_phase("rng")
    b.draw("r", r_bits, avoid=("p", "q"))
    b.set_phase("precompute")
    b.one()
    b.const("zero", 0)
    b.mul("pp", "p", "r")
    b.mul("qq", "q", "r")
    b.set_phase("verify")
    b.check("pp", "zero", mod="p")
    b.check("qq", "zero", mod="q")
    b.set_phase("precompute")
    _reduced_exponent(b, "p", "r", dp)
    _reduced_exponent(b, "q", "r", dq)


def _joye_rings(b: ProgramBuilder) -> None:
    """Joye's two widened rings pp = p*r1 and qq = q*r2 with their reduced
    exponents, the small-ring exponents dpr = dp mod r1-1 and dqr = dq mod r2-1,
    and iqq = qq^-1 mod pp and n = p*q, which joye stores but never consumes."""
    b.set_phase("precompute")
    one = b.one()
    b.mul("pp", "p", "r1")
    b.mul("qq", "q", "r2")
    b.inv("iqq", "qq", "pp")
    b.mul("n", "p", "q")
    _reduced_exponent(b, "p", "r1", "dp")
    _reduced_exponent(b, "q", "r2", "dq")
    b.sub("r1m1", "r1", one)
    b.sub("r2m1", "r2", one)
    b.reduce("dpr", "dp", "r1m1")
    b.reduce("dqr", "dq", "r2m1")


def _build_unprotected(key: CrtKey, r_bits: int, build_seed: int) -> Program:
    b = _loaded("unprotected", _CRT_INPUTS)
    b.set_phase("exp-p")
    b.exp("sp", "m", "dp", "p")
    b.set_phase("exp-q")
    b.exp("sq", "m", "dq", "q")
    b.set_phase("recombine")
    si = b.recombine("s", "sp", "sq", "q", "iq", "p")
    b.set_phase("output")
    ri = b.ret("s")
    return b.build(output_tail=(si, ri))


def _build_straightforward(key: CrtKey, r_bits: int, build_seed: int) -> Program:
    # Signature halves use totient-reduced exponents; the verification halves
    # recompute with the raw exponents. Layout keeps each half and its checker
    # non-adjacent so no short skip window erases a value and its verifier.
    b = _loaded("straightforward", _CRT_INPUTS)
    b.set_phase("precompute")
    one = b.one()
    b.sub("pm1", "p", one)
    b.sub("qm1", "q", one)
    b.reduce("dpf", "dp", "pm1")
    b.reduce("dqf", "dq", "qm1")
    b.set_phase("exp-p")
    b.exp("sp", "m", "dpf", "p")
    b.set_phase("exp-q")
    b.exp("sq", "m", "dqf", "q")
    b.set_phase("verify")
    b.exp("vp", "m", "dp", "p")
    b.exp("vq", "m", "dq", "q")
    b.check("sq", "vq", mod="q")
    b.check("sp", "vp", mod="p")
    b.set_phase("recombine")
    b.recombine("s", "sp", "sq", "q", "iq", "p")
    b.set_phase("verify")
    b.check("s", "sp", mod="p")
    b.check("s", "sq", mod="q")
    b.set_phase("output")
    b.ret("s")
    return b.build()


def _ladder(
    b: ProgramBuilder, exponent: int, base: str, mod: str, tag: str
) -> tuple[str, str]:
    """Two-register square-multiply chain keeping (x^(k-1), x^k) in step.

    Returns registers holding (base^(exponent-1), base^exponent) mod `mod`,
    unrolled for this key's exponent bits.
    """
    if exponent < 1:
        raise UnsatisfiableRandom("pair ladder needs a positive exponent")
    lo, hi = b.one(), base
    for k, bit in enumerate(bin(exponent)[3:]):  # bits after the leading 1
        na, nb = f"{tag}{k}a", f"{tag}{k}b"
        if bit == "0":
            b.mul(na, lo, hi, mod=mod)
            b.mul(nb, hi, hi, mod=mod)
        else:
            b.mul(na, hi, hi, mod=mod)
            b.mul(nb, na, base, mod=mod)
        lo, hi = na, nb
    return lo, hi


def _build_giraud(key: CrtKey, r_bits: int, build_seed: int) -> Program:
    # the pair ladder unrolls dp and dq at build time, so only the moduli
    # and the recombination constant are data
    b = _loaded("giraud-sketch", ("M", "p", "q", "iq"))
    b.set_phase("precompute")
    b.one()
    b.reduce("mp", "m", "p")
    b.reduce("mq", "m", "q")
    b.mul("n", "p", "q")
    b.set_phase("exp-p")
    gp0, gp1 = _ladder(b, key.dp, "mp", "p", "gp")
    b.set_phase("exp-q")
    gq0, gq1 = _ladder(b, key.dq, "mq", "q", "gq")
    b.set_phase("recombine")
    b.recombine("s", gp1, gq1, "q", "iq", "p")
    b.recombine("v", gp0, gq0, "q", "iq", "p")
    b.set_phase("verify")
    b.mul("ms", "m", "v", mod="n")
    b.check("ms", "s", mod="n")
    b.set_phase("output")
    ri = b.ret("s")
    return b.build(output_tail=(ri,), n_reg="n")


def _build_shamir(key: CrtKey, r_bits: int, build_seed: int) -> Program:
    b = _loaded("shamir", _D_INPUTS)
    b.set_phase("rng")
    b.draw("r", r_bits, avoid=("p", "q"))
    b.set_phase("precompute")
    b.one()
    b.mul("pp", "p", "r")
    _reduced_exponent(b, "p", "r", "d")
    b.set_phase("exp-p")
    b.exp("spp", "m", "dpp", "pp")
    b.set_phase("precompute")
    b.mul("qq", "q", "r")
    _reduced_exponent(b, "q", "r", "d")
    b.set_phase("exp-q")
    b.exp("sqq", "m", "dqq", "qq")
    b.set_phase("retrieve")
    b.reduce("sp", "spp", "p")
    b.reduce("sq", "sqq", "q")
    b.set_phase("recombine")
    b.recombine("s", "sp", "sq", "q", "iq", "p")
    b.set_phase("verify")
    b.check("spp", "sqq", mod="r")
    b.set_phase("output")
    ri = b.ret("s")
    return b.build(output_tail=(ri,), checksum_power=1, r_regs=("r",))


def _build_fixed_shamir(key: CrtKey, r_bits: int, build_seed: int) -> Program:
    b = _loaded("fixed-shamir", _D_INPUTS)
    _checked_widening(b, r_bits, "d", "d")
    b.set_phase("exp-p")
    b.exp("spp", "m", "dpp", "pp")
    b.set_phase("exp-q")
    b.exp("sqq", "m", "dqq", "qq")
    # the retrievals sit between the exponentiations and the mod-r compare
    # so no short skip window can take out an exponentiation together with
    # the one check that would notice it
    b.set_phase("retrieve")
    b.reduce("sp", "spp", "p")
    b.reduce("sq", "sqq", "q")
    b.set_phase("verify")
    b.check("spp", "sqq", mod="r")
    b.set_phase("recombine")
    b.recombine("s", "sp", "sq", "q", "iq", "p")
    b.set_phase("verify")
    b.check("s", "spp", mod="p")
    b.check("s", "sqq", mod="q")
    b.set_phase("output")
    ri = b.ret("s")
    return b.build(output_tail=(ri,), checksum_power=1, r_regs=("r",))


def _build_joye(key: CrtKey, r_bits: int, build_seed: int) -> Program:
    b = _loaded("joye", _CRT_INPUTS)
    b.set_phase("rng")
    b.draw("r1", r_bits, avoid=("p", "q"))
    b.draw("r2", r_bits, avoid=("p", "q", "r1"))
    _joye_rings(b)
    b.set_phase("exp-p")
    b.exp("spp", "m", "dpp", "pp")
    b.exp("spr", "m", "dpr", "r1")
    b.set_phase("exp-q")
    b.exp("sqq", "m", "dqq", "qq")
    b.exp("sqr", "m", "dqr", "r2")
    b.set_phase("retrieve")
    b.reduce("sp", "spp", "p")
    b.reduce("sq", "sqq", "q")
    b.set_phase("verify")
    b.check("spp", "spr", mod="r1")
    b.check("sqq", "sqr", mod="r2")
    b.set_phase("recombine")
    si = b.recombine("s", "sp", "sq", "q", "iq", "p")
    b.set_phase("output")
    ri = b.ret("s")
    return b.build(output_tail=(si, ri), checksum_power=1, r_regs=("r1", "r2"), n_reg="n")


def _build_ciet_joye(key: CrtKey, r_bits: int, build_seed: int) -> Program:
    # recombination runs in the widened ring with its own inverse constant,
    # so the plain iq is not part of this program's data
    b = _loaded("ciet-joye", ("M", "p", "q", "dp", "dq"))
    b.set_phase("rng")
    b.draw("r1", r_bits, avoid=("p", "q"))
    b.draw("r2", r_bits, avoid=("p", "q", "r1"))
    b.draw("r3", r_bits)
    b.draw("a", r_bits)
    b.draw("gamma0", r_bits)  # placeholder the infection line supersedes
    _joye_rings(b)
    b.set_phase("exp-p")
    b.exp("xp", "m", "dpp", "pp")
    b.add("spp", "a", "xp", mod="pp")
    b.exp("xpr", "m", "dpr", "r1")
    b.add("spr", "a", "xpr", mod="r1")
    b.set_phase("exp-q")
    b.exp("xq", "m", "dqq", "qq")
    b.add("sqq", "a", "xq", mod="qq")
    b.exp("xqr", "m", "dqr", "r2")
    b.add("sqr", "a", "xqr", mod="r2")
    b.set_phase("recombine")
    b.recombine("sr", "spp", "sqq", "qq", "iqq", "pp")
    b.set_phase("verify")
    b.factor("c1", "sr", "spr", "r1", "c1d")
    b.factor("c2", "sr", "sqr", "r2", "c2d")
    b.set_phase("infect")
    b.const("pw", 1 << r_bits)
    b.mul("g1", "r3", "c1")
    b.sub("g2", "pw", "r3")
    b.mul("g3", "g2", "c2")
    b.add("g4", "g1", "g3")
    b.div("gam", "g4", "pw")  # exact when c1 = c2; inexact division crashes
    b.set_phase("output")
    ai = b.exp("ag", "a", "gam", "n")
    si = b.sub("s", "sr", "ag", mod="n")
    ri = b.ret("s")
    # infection is the gamma blend, not the canonical product/power shape, so
    # infection_indices stays empty and the reverse transform refuses it
    return b.build(output_tail=(ai, si, ri), checksum_power=1, r_regs=("r1", "r2"), n_reg="n")


def _build_blomer(key: CrtKey, r_bits: int, build_seed: int) -> Program:
    # The masking exponents d mod phi(p*r1), d mod phi(q*r2) must be
    # invertible in their totient rings for the verification powers to exist,
    # so r1/r2 are screened at build time and embedded as constants.
    d = _d_of(key)
    rng = random.Random((build_seed * 0xB5297A4D + r_bits) & 0xFFFFFFFF)
    lo, hi = 1 << (r_bits - 1), 1 << r_bits
    r1 = r2 = None
    # both draws must be prime: at r_bits 16 the first pair that qualifies
    # can come past draw 400
    for _ in range(4000):
        c1 = rng.randrange(lo, hi)
        c2 = rng.randrange(lo, hi)
        if not (is_prime(c1) and is_prime(c2)):
            continue
        if len({c1, c2, key.p, key.q}) != 4:
            continue
        php = (key.p - 1) * (c1 - 1)
        phq = (key.q - 1) * (c2 - 1)
        if gcd(d % php, php) == 1 and gcd(d % phq, phq) == 1:
            r1, r2 = c1, c2
            break
    if r1 is None:
        raise UnsatisfiableRandom(
            f"no invertible masking pair of width {r_bits} for this key"
        )
    b = _loaded("blomer", ("M", "p", "q", "d"))
    b.set_phase("rng")
    b.const("r1", r1)
    b.const("r2", r2)
    b.set_phase("precompute")
    b.one()
    b.mul("pp", "p", "r1")
    b.mul("qq", "q", "r2")
    b.inv("iqq", "qq", "pp")
    b.mul("n", "p", "q")
    b.mul("rr", "r1", "r2")
    b.mul("nn", "n", "rr")  # stored but never consumed: dead by design
    _reduced_exponent(b, "p", "r1", "d")
    b.inv("epp", "dpp", "phip")
    _reduced_exponent(b, "q", "r2", "d")
    b.inv("eqq", "dqq", "phiq")
    b.set_phase("exp-p")
    b.exp("spp", "m", "dpp", "pp")
    b.set_phase("exp-q")
    b.exp("sqq", "m", "dqq", "qq")
    b.set_phase("recombine")
    b.recombine("sr", "spp", "sqq", "qq", "iqq", "pp")
    b.set_phase("verify")
    b.exp("v1", "sr", "epp", "r1")
    b.factor("c1", "m", "v1", "r1", "c1d")
    b.exp("v2", "sr", "eqq", "r2")
    b.factor("c2", "m", "v2", "r2", "c2d")
    b.set_phase("output")
    tail = b.infect("sr", ["c1", "c2"], "n", {"m1": "cc", "s": "sf"}.__getitem__)
    return b.build(output_tail=tail, checksum_power=1, r_regs=("r1", "r2"), n_reg="n")


def _build_aumuller(key: CrtKey, r_bits: int, build_seed: int) -> Program:
    b = _loaded("aumuller", _CRT_INPUTS)
    _checked_widening(b, r_bits, "dp", "dq")
    b.sub("rm1", "r", b.one())
    b.set_phase("exp-p")
    b.exp("spp", "m", "dpp", "pp")
    b.set_phase("exp-q")
    b.exp("sqq", "m", "dqq", "qq")
    b.set_phase("retrieve")
    b.reduce("sp", "spp", "p")
    b.reduce("sq", "sqq", "q")
    b.set_phase("recombine")
    b.recombine("s", "sp", "sq", "q", "iq", "p")
    b.set_phase("verify")
    b.check("s", "spp", mod="p")
    b.check("s", "sqq", mod="q")
    b.reduce("spr", "spp", "r")
    b.reduce("sqr", "sqq", "r")
    b.reduce("dqr", "dq", "rm1")
    b.reduce("dpr", "dp", "rm1")
    b.exp("a1", "spr", "dqr", "r")
    b.exp("a2", "sqr", "dpr", "r")
    b.check("a1", "a2", mod="r")
    b.set_phase("output")
    ri = b.ret("s")
    return b.build(output_tail=(ri,), checksum_power=1, r_regs=("r",))


def _vigilant_half(b: ProgramBuilder, x: str) -> None:
    """Vigilant's half for the prime x: m CRT-embedded into Z_{x*r^2} (m mod x,
    1+r mod r^2), raised to d{x} mod phi(x*r^2) = (x-1)*r*(r-1) into s{x}{x}."""
    b.set_phase("precompute")
    one = b.one()
    ext = f"{x}{x}"  # the widened modulus x * r^2
    b.mul(ext, x, "rsq")
    b.inv(f"i{x}r", x, "rsq")
    b.reduce(f"m{x}", "m", ext)
    b.mul(f"b{x}", x, f"i{x}r")
    b.sub(f"a{x}", one, f"b{x}", mod=ext)
    b.mul(f"e{x}1", f"a{x}", f"m{x}", mod=ext)
    b.mul(f"e{x}2", f"b{x}", "onepr", mod=ext)
    b.add(f"m{x}{x}", f"e{x}1", f"e{x}2", mod=ext)
    b.sub(f"{x}m1", x, one)
    b.mul(f"f{x}", f"{x}m1", "r")
    b.mul(f"phi{x}", f"f{x}", "rm1")
    b.reduce(f"d{x}{x}", f"d{x}", f"phi{x}")
    b.set_phase(f"exp-{x}")
    b.exp(f"s{x}{x}", f"m{x}{x}", f"d{x}{x}", ext)


def _build_vigilant(key: CrtKey, r_bits: int, build_seed: int) -> Program:
    b = _loaded("vigilant", _CRT_INPUTS)
    b.set_phase("rng")
    b.draw("r", r_bits, avoid=("p", "q"))
    b.draw("br1", r_bits)
    b.draw("br2", r_bits)
    b.set_phase("precompute")
    one = b.one()
    b.mul("n", "p", "q")
    b.mul("rsq", "r", "r")
    b.add("onepr", one, "r")
    b.sub("rm1", "r", one)
    _vigilant_half(b, "p")
    b.set_phase("verify")
    b.check("mpp", "m", mod="p")
    b.mul("dpro", "dp", "r")
    b.add("ckp", one, "dpro")
    b.mul("u1", "bp", "spp", mod="pp")
    b.mul("u2", "bp", "ckp", mod="pp")
    b.check("u1", "u2", mod="pp")
    _vigilant_half(b, "q")
    b.set_phase("verify")
    b.check("mqq", "m", mod="q")
    b.mul("dqro", "dq", "r")
    b.add("ckq", one, "dqro")
    b.mul("u3", "bq", "sqq", mod="qq")
    b.mul("u4", "bq", "ckq", mod="qq")
    b.check("u3", "u4", mod="qq")
    b.set_phase("recombine")
    # swap each checksum residue for a fresh random before recombining
    b.sub("w1", "ckp", "br1")
    b.mul("v1", "bp", "w1")
    b.sub("spr", "spp", "v1")
    b.sub("w2", "ckq", "br2")
    b.mul("v2", "bq", "w2")
    b.sub("sqr", "sqq", "v2")
    b.recombine("srec", "spr", "sqr", "q", "iq", "pp")
    b.set_phase("verify")
    b.mul("nr2", "n", "rsq")
    b.sub("h1", "br1", "br2")
    b.mul("h2", "iq", "h1")
    b.mul("h3", "q", "h2")
    b.sub("h4", "srec", "br2")
    b.sub("h5", "h4", "h3")
    # the left side multiplies p*q afresh rather than reusing the stored
    # modulus: against the reused register the comparison would cancel any
    # corruption of it, leaving the public modulus unverified
    b.mul("pq2", "p", "q")
    b.mul("h6", "pq2", "h5")
    b.const("zero", 0)
    b.check("h6", "zero", mod="nr2")
    b.set_phase("output")
    si = b.reduce("s", "srec", "n")
    ri = b.ret("s")
    return b.build(output_tail=(si, ri), checksum_power=2, r_regs=("r",), n_reg="n")


def _build_vigilant_simplified(key: CrtKey, r_bits: int, build_seed: int) -> Program:
    b = _loaded("vigilant-simplified-infective", _CRT_INPUTS)
    b.set_phase("rng")
    b.draw("r", r_bits, avoid=("p", "q"))
    b.set_phase("precompute")
    one = b.one()
    b.mul("n", "p", "q")
    b.mul("rsq", "r", "r")
    b.add("onepr", one, "r")
    b.sub("rm1", "r", one)
    _vigilant_half(b, "p")
    b.mul("dpro", "dp", "r")
    b.add("spr", one, "dpro")  # expected checksum residue 1 + dp*r
    b.set_phase("verify")
    b.add("cpa", "mpp", "n")
    b.factor("cp", "cpa", "m", "p", "cpd")
    _vigilant_half(b, "q")
    b.mul("dqro", "dq", "r")
    b.add("sqr", one, "dqro")
    b.set_phase("verify")
    b.add("cqa", "mqq", "n")
    b.factor("cq", "cqa", "m", "q", "cqd")
    b.set_phase("recombine")
    b.recombine("srec", "spp", "sqq", "q", "iq", "pp")
    b.recombine("crec", "spr", "sqr", "q", "iq", "pp")
    b.set_phase("verify")
    b.factor("cs", "srec", "crec", "rsq", "csd")
    b.set_phase("output")
    names = {"m1": "x1", "m2": "cstar", "s": "sf"}
    tail = b.infect("srec", ["cp", "cq", "cs"], "n", names.__getitem__)
    return b.build(output_tail=tail, checksum_power=2, r_regs=("r",), n_reg="n")


def _build_aumuller_infective(key: CrtKey, r_bits: int, build_seed: int) -> Program:
    return to_infective(_build_aumuller(key, r_bits, build_seed))


_CATALOG = {
    e.algo: e
    for e in (
        CatalogEntry("unprotected", "none", "none", 0, 1, _build_unprotected),
        CatalogEntry("straightforward", "none", "test-based", 1, None, _build_straightforward),
        CatalogEntry("giraud-sketch", "giraud", "test-based", 1, None, _build_giraud),
        CatalogEntry("shamir", "shamir", "test-based", 1, 1, _build_shamir),
        CatalogEntry("fixed-shamir", "shamir", "test-based", 1, None, _build_fixed_shamir),
        CatalogEntry("joye", "shamir", "test-based", 1, 1, _build_joye),
        CatalogEntry("ciet-joye", "shamir", "infective", 2, 2, _build_ciet_joye),
        CatalogEntry("blomer", "shamir", "infective", 1, None, _build_blomer),
        CatalogEntry("aumuller", "shamir", "test-based", 1, None, _build_aumuller),
        CatalogEntry(
            "aumuller-infective", "shamir", "infective", 1, None, _build_aumuller_infective
        ),
        CatalogEntry("vigilant", "shamir", "test-based", 1, None, _build_vigilant),
        CatalogEntry(
            "vigilant-simplified-infective", "shamir", "infective", 1, None,
            _build_vigilant_simplified,
        ),
    )
}


def build(algo: str, key: CrtKey, r_bits: int = 8, build_seed: int = 0) -> Program:
    """Compile one catalog algorithm for a fixed key.

    r_bits sizes every small-modulus draw. Algorithms drawing several
    distinct small primes need a pool that survives the avoid sets; with
    very small keys use r_bits >= 5.
    """
    builder = catalog_entry(algo).builder
    if r_bits < 2:
        raise ValueError("r_bits must be at least 2")
    return builder(key, r_bits, build_seed)
