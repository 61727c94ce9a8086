"""Catalog builders: functional equivalence and per-scheme invariants."""

import pytest

from crtfi.circuit import (
    BuildError,
    CheckEq,
    DrawRandomPrime,
    FaultAction,
    FaultKind,
    ProgramBuilder,
    Signature,
    WriteOf,
    execute,
    find_write,
    is_well_formed,
    validate,
)
from crtfi.countermeasures import build, catalog, catalog_entry, program_inputs
from crtfi.keytools import CrtKey, derive_crt
from crtfi.modmath import bellcore_extract, binomial_checksum, is_prime, mod_exp

TINY = derive_crt(7, 11, 43)
ALGOS = tuple(e.algo for e in catalog())


def run(prog, message=2, seed=0):
    return execute(prog, program_inputs(prog, TINY, message), seed=seed)


# ------------------------------------------------------------------- catalog


def test_catalog_names_are_unique_and_buildable():
    assert len(ALGOS) == len(set(ALGOS)) == 12
    for algo in ALGOS:
        prog = build(algo, TINY, r_bits=5, build_seed=0)
        assert is_well_formed(prog)
        assert prog.name == algo


def test_catalog_rows_frozen():
    cj = catalog_entry("ciet-joye")
    assert (cj.family, cj.style, cj.claimed_order, cj.broken_at) == ("shamir", "infective", 2, 2)
    au = catalog_entry("aumuller")
    assert (au.family, au.style, au.claimed_order) == ("shamir", "test-based", 1)
    gs = catalog_entry("giraud-sketch")
    assert (gs.family, gs.style, gs.claimed_order) == ("giraud", "test-based", 1)


def test_unknown_algo_rejected():
    with pytest.raises(ValueError, match="unknown algo"):
        build("nosuch", TINY)


def test_a_builder_reading_before_writing_is_refused():
    b = ProgramBuilder("ghost", ("M",))
    b.inp("m", "M")
    b.add("s", "m", "g")
    b.const("g", 0)
    b.ret("s")
    with pytest.raises(BuildError, match="ghost is not runnable: 'g' read before any write"):
        b.build()


def test_builder_warnings_are_only_dead_stores():
    for algo in ALGOS:
        prog = build(algo, TINY, r_bits=5, build_seed=0)
        for d in validate(prog):
            assert d.severity == "warning"
            assert d.kind == "dead-store"


# ------------------------------------------------------- functional behavior


def test_every_scheme_signs_like_the_plain_exponentiation():
    for algo in ALGOS:
        for seed in (0, 1, 2):
            prog = build(algo, TINY, r_bits=5, build_seed=seed)
            for m in range(77):
                out = execute(prog, program_inputs(prog, TINY, m), seed=seed)
                want = mod_exp(m, 43, 77)
                assert out.result == Signature(want), (algo, seed, m)


def test_missing_private_exponent_is_recovered():
    bare = CrtKey(p=7, q=11, dp=1, dq=3, iq=2)
    prog = build("shamir", bare, r_bits=5, build_seed=0)
    out = execute(prog, program_inputs(prog, bare, 2), seed=0)
    assert out.result == Signature(30)


# ------------------------------------------------------- interior identities


def test_giraud_pair_satisfies_the_message_multiple_identity():
    prog = build("giraud-sketch", TINY, r_bits=5, build_seed=0)
    for m in (2, 3, 5):
        out = execute(prog, program_inputs(prog, TINY, m), seed=0)
        regs = out.regs()
        assert regs["ms"] == regs["s"] % regs["n"]
        assert (m * regs["v"] - regs["s"]) % 77 == 0


def test_ciet_joye_infection_is_inert_when_clean():
    prog = build("ciet-joye", TINY, r_bits=5, build_seed=0)
    for seed in (0, 1, 5):
        out = execute(prog, program_inputs(prog, TINY, 2), seed=seed)
        regs = out.regs()
        assert regs["c1"] == 1 and regs["c2"] == 1
        assert regs["gam"] == 1
        assert out.result == Signature(30)


def test_vigilant_checksum_rides_inside_the_p_branch():
    prog = build("vigilant", TINY, r_bits=5, build_seed=3)
    out = execute(prog, program_inputs(prog, TINY, 2), seed=3)
    regs = out.regs()
    r = dict(out.draws)[find_write(prog, "r")]
    assert is_prime(r)
    assert regs["spp"] % (r * r) == binomial_checksum(TINY.dp, r)
    assert out.result == Signature(30)


def test_simplified_infective_product_is_one_when_clean():
    prog = build("vigilant-simplified-infective", TINY, r_bits=5, build_seed=0)
    out = execute(prog, program_inputs(prog, TINY, 2), seed=2)
    regs = out.regs()
    cs = [regs[f.c_reg] for f in prog.meta.factors]
    assert len(cs) == 3
    assert all(c == 1 for c in cs)
    assert out.result == Signature(30)


def test_vigilant_carries_five_equality_checks():
    prog = build("vigilant", TINY, r_bits=5, build_seed=0)
    checks = [i for i, ins in enumerate(prog.instrs) if isinstance(ins, CheckEq)]
    assert len(checks) == 5
    assert tuple(checks) == prog.meta.verification_checks


def test_drawn_randoms_avoid_the_named_registers():
    prog = build("joye", TINY, r_bits=5, build_seed=0)
    for seed in range(6):
        out = execute(prog, program_inputs(prog, TINY, 2), seed=seed)
        draws = dict(out.draws)
        r1 = draws[find_write(prog, "r1")]
        r2 = draws[find_write(prog, "r2")]
        assert r1 != r2
        assert is_prime(r1) and is_prime(r2)
        assert r1 not in (7, 11) and r2 not in (7, 11)


def test_unchecked_recombination_leaks_a_factor():
    prog = build("shamir", TINY, r_bits=5, build_seed=0)
    plan = (FaultAction(WriteOf(find_write(prog, "s_m")), FaultKind.ZERO),)
    out = execute(prog, program_inputs(prog, TINY, 2), seed=0, plan=plan)
    assert isinstance(out.result, Signature)
    res = bellcore_extract(77, 30, out.result.value, 7, 11)
    assert res.success


def test_infective_styles_never_branch():
    for algo in ALGOS:
        entry = catalog_entry(algo)
        prog = build(algo, TINY, r_bits=5, build_seed=0)
        has_checks = any(isinstance(ins, CheckEq) for ins in prog.instrs)
        if entry.style == "infective":
            assert not has_checks
            assert prog.meta.factors
        elif entry.style == "test-based":
            assert has_checks


def test_blomer_draws_are_build_time_constants():
    prog = build("blomer", TINY, r_bits=5, build_seed=0)
    assert not any(isinstance(ins, DrawRandomPrime) for ins in prog.instrs)
    prog2 = build("blomer", TINY, r_bits=5, build_seed=1)
    out = execute(prog2, program_inputs(prog2, TINY, 2), seed=9)
    assert out.result == Signature(30)
