"""Style transforms: check-to-infection, its inverse, and replication."""

from dataclasses import replace

import pytest

from crtfi.circuit import (
    CheckEq,
    FaultAction,
    FaultKind,
    Signature,
    WriteOf,
    execute,
    find_write,
    registers_of,
    rename_registers,
)
from crtfi.countermeasures import build, catalog, program_inputs
from crtfi.keytools import crt_from_rsa, derive_crt, gen_key
from crtfi.modmath import FactorClass, bellcore_extract
from crtfi.transforms import (
    NoVerifications,
    NotInfective,
    NotTestBased,
    UnrecognizedInfectionShape,
    harden,
    to_infective,
    to_testbased,
)

TINY = derive_crt(7, 11, 43)

# every catalog entry that verifies through equality checks
CHECKED = [
    "straightforward",
    "shamir",
    "fixed-shamir",
    "joye",
    "aumuller",
    "vigilant",
    "giraud-sketch",
]


def program_isomorphic(a, b):
    """Same instruction stream up to a consistent register renaming.

    Inputs must match by name and position; metadata is not compared.
    """
    if len(a.instrs) != len(b.instrs) or a.inputs != b.inputs:
        return False
    fwd, rev = {}, {}

    def bind(x, y):
        if x is None or y is None:
            return x is None and y is None
        return fwd.setdefault(x, y) == y and rev.setdefault(y, x) == x

    for ia, ib in zip(a.instrs, b.instrs):
        # bind the registers field by field; what renaming leaves must match
        pairs = list(zip(registers_of(ia), registers_of(ib)))
        if not all(bind(x, y) for x, y in pairs) or rename_registers(ia, dict(pairs)) != ib:
            return False
    return True


def run(program, message=2, seed=3, plan=()):
    return execute(program, program_inputs(program, TINY, message), seed=seed, plan=plan)


# ---------------------------------------------------------------- to_infective


def test_to_infective_preserves_the_clean_signature():
    for name in CHECKED:
        p = build(name, TINY, r_bits=5, build_seed=0)
        q = to_infective(p)
        r0 = run(p).result
        r1 = run(q).result
        assert isinstance(r0, Signature)
        assert r1 == r0, name


def test_to_infective_turns_each_check_into_one_factor():
    for name in CHECKED:
        p = build(name, TINY, r_bits=5, build_seed=0)
        q = to_infective(p)
        n_checks = sum(isinstance(i, CheckEq) for i in p.instrs)
        assert not any(isinstance(i, CheckEq) for i in q.instrs)
        assert len(q.meta.factors) == n_checks, name


def test_infective_aumuller_catalog_entry_is_the_transform_of_the_checked_one():
    tb = build("aumuller", TINY, r_bits=5, build_seed=0)
    inf = to_infective(tb)
    cat = build("aumuller-infective", TINY, r_bits=5, build_seed=0)
    assert len(inf.meta.factors) == 5
    assert cat.instrs == inf.instrs
    assert cat.meta == inf.meta


def test_to_infective_rejects_a_program_without_checks():
    p = build("unprotected", TINY, r_bits=5, build_seed=0)
    with pytest.raises(NotTestBased):
        to_infective(p)


def test_infection_removes_the_intact_branch_leak():
    # unprotected: fault the p half, the q half survives into the output and
    # gcd pulls q out for every single wrong value
    up = build("unprotected", TINY, r_bits=5, build_seed=0)
    wu = find_write(up, "sp")
    for message in (2, 3):
        good = run(up, message).result.value
        nominal = pow(message, TINY.dp, TINY.p)
        for v in range(TINY.p):
            if v == nominal:
                continue
            res = run(up, message, plan=(FaultAction(WriteOf(wu), FaultKind.RANDOMIZE, v),)).result
            got = bellcore_extract(77, good, res.value, TINY.p, TINY.q)
            assert got.cls is FactorClass.FACTOR_Q

    # after infection the released value is garbled in both residue branches,
    # so the every-value leak is gone; what is left are accidental subring
    # hits that move when the message moves
    isf = to_infective(build("straightforward", TINY, r_bits=5, build_seed=0))
    wi = find_write(isf, "sp")

    def braking_values(message):
        good = run(isf, message).result.value
        nominal = pow(message, TINY.dp, TINY.p)
        hits = set()
        for v in range(77):
            if v == nominal:
                continue
            res = run(isf, message, plan=(FaultAction(WriteOf(wi), FaultKind.RANDOMIZE, v),)).result
            assert isinstance(res, Signature)
            if bellcore_extract(77, good, res.value, TINY.p, TINY.q).success:
                hits.add(v)
        return hits

    at_two = braking_values(2)
    at_three = braking_values(3)
    assert len(at_two) == 22
    assert len(at_three) == 11
    assert not (at_two & at_three)


# ---------------------------------------------------------------- to_testbased


def test_round_trip_restores_the_exact_program():
    for name in CHECKED:
        tb = build(name, TINY, r_bits=5, build_seed=9)
        back = to_testbased(to_infective(tb))
        assert back.instrs == tb.instrs, name
        assert back.meta.phases == tb.meta.phases
        assert back.meta.verification_checks == tb.meta.verification_checks
        assert back.meta.one_reg == tb.meta.one_reg
        assert back.meta.n_reg == tb.meta.n_reg


def test_simplified_infective_exposes_three_checks():
    p = build("vigilant-simplified-infective", TINY, r_bits=5, build_seed=0)
    assert len(p.meta.factors) == 3
    back = to_testbased(p)
    assert sum(isinstance(i, CheckEq) for i in back.instrs) == 3
    # hand-written infection over the checksum ring: the restored program
    # releases the wide representative, equal only as a residue mod N
    assert run(back).result.value % 77 == run(p).result.value == 30


def test_hand_written_infection_converts_into_the_wider_ring():
    p = build("blomer", TINY, r_bits=5, build_seed=0)
    back = to_testbased(p)
    assert sum(isinstance(i, CheckEq) for i in back.instrs) == len(p.meta.factors) == 2
    r0 = run(p).result
    r1 = run(back).result
    # the masked base register is released before the final reduction, so
    # only the residue mod N is promised to match
    assert r1.value % 77 == r0.value == 30


def test_to_testbased_rejects_unmarked_programs():
    with pytest.raises(NotInfective):
        to_testbased(build("unprotected", TINY, r_bits=5, build_seed=0))
    with pytest.raises(UnrecognizedInfectionShape):
        to_testbased(build("ciet-joye", TINY, r_bits=5, build_seed=0))
    # a factor record whose "+1" add is an input load, with no unit register named
    p = build("blomer", TINY, r_bits=5, build_seed=0)
    f = p.meta.factors[0]
    moved = replace(p.meta, one_reg=None, factors=(replace(f, c_idx=0), *p.meta.factors[1:]))
    with pytest.raises(UnrecognizedInfectionShape, match="factor c1"):
        to_testbased(replace(p, meta=moved))


# ---------------------------------------------------------------------- harden


def test_harden_one_copy_is_the_identity():
    p = build("aumuller", TINY, r_bits=5, build_seed=0)
    assert harden(p, 1) is p


def test_harden_rejects_bad_counts_and_unverified_programs():
    p = build("aumuller", TINY, r_bits=5, build_seed=0)
    with pytest.raises(ValueError):
        harden(p, 0)
    with pytest.raises(NoVerifications):
        harden(build("unprotected", TINY, r_bits=5, build_seed=0), 2)


def test_harden_multiplies_checks_and_keeps_the_signature():
    for copies in (2, 3):
        p = build("aumuller", TINY, r_bits=5, build_seed=0)
        h = harden(p, copies)
        assert sum(isinstance(i, CheckEq) for i in h.instrs) == 5 * copies
        assert len(h.instrs) > len(p.instrs)
        assert run(h).result == run(p).result


def test_harden_multiplies_factor_groups_and_keeps_the_signature():
    p = build("aumuller-infective", TINY, r_bits=5, build_seed=0)
    h = harden(p, 2)
    assert len(p.meta.factors) == 5
    assert len(h.meta.factors) == 10
    assert len(p.instrs) == 52
    assert len(h.instrs) == 74
    assert run(h).result == run(p).result


def test_harden_keeps_vigilant_clean():
    p = build("vigilant", TINY, r_bits=5, build_seed=0)
    h = harden(p, 2)
    assert run(h).result == run(p).result == Signature(30)


@pytest.mark.parametrize("key", [TINY, crt_from_rsa(gen_key(8, 2))], ids=["demo", "g82"])
def test_harden_composes(key):
    def units(program):
        checks = sum(isinstance(i, CheckEq) for i in program.instrs)
        return checks or len(program.meta.factors)

    accepted = 0
    for entry in catalog():
        p = build(entry.algo, key, r_bits=5)
        try:
            once = harden(p, 2)
        except ValueError:
            continue
        twice = harden(once, 2)
        assert units(twice) == 4 * units(p), entry.algo
        inputs = program_inputs(p, key, 2)
        signature = execute(p, inputs, seed=42).result
        assert isinstance(signature, Signature)
        assert execute(twice, inputs, seed=42).result == signature, entry.algo
        accepted += 1
    assert accepted == 10


# --------------------------------------------------------------- isomorphism


def test_programs_are_isomorphic_to_themselves():
    for entry in catalog():
        p = build(entry.algo, TINY, r_bits=5, build_seed=0)
        assert program_isomorphic(p, p), entry.algo


def test_renamed_programs_are_isomorphic_and_merged_registers_are_not():
    for entry in catalog():
        p = build(entry.algo, TINY, r_bits=5, build_seed=0)
        regs = sorted({r for ins in p.instrs for r in registers_of(ins) if r is not None})
        ren = {r: r + "_x" for r in regs}
        q = replace(p, instrs=tuple(rename_registers(ins, ren) for ins in p.instrs))
        assert all(r.endswith("_x") for ins in q.instrs for r in registers_of(ins) if r)
        assert program_isomorphic(p, q), entry.algo
        # two registers sent to one name is no renaming
        merged = {regs[0]: regs[1]}
        m = replace(p, instrs=tuple(rename_registers(ins, merged) for ins in p.instrs))
        assert not program_isomorphic(p, m), entry.algo


def test_distinct_schemes_are_not_isomorphic():
    a = build("aumuller", TINY, r_bits=5, build_seed=0)
    v = build("vigilant", TINY, r_bits=5, build_seed=0)
    s = build("shamir", TINY, r_bits=5, build_seed=0)
    f = build("fixed-shamir", TINY, r_bits=5, build_seed=0)
    assert not program_isomorphic(a, v)
    assert not program_isomorphic(s, f)
    assert not program_isomorphic(a, to_infective(a))
