"""Instruction set, interpreter, and fault semantics."""

import copy
import pickle

import pytest

from crtfi.circuit import (
    Add,
    CheckEq,
    Const,
    Crash,
    DrawRandomPrime,
    ErrorOut,
    FaultAction,
    FaultKind,
    LoadInput,
    ModExp,
    ModInv,
    ModReduce,
    Mul,
    ProgramBuilder,
    ReadOf,
    Ret,
    Signature,
    SkipRange,
    WriteOf,
    dst_of,
    dump_program,
    enumerate_sites,
    execute,
    find_write,
    is_well_formed,
    modulus_reg,
    parse_dump,
    program_digest,
    reads_of,
    same_result,
    skip_fill_value,
    validate,
)
from crtfi.countermeasures import build, catalog, program_inputs
from crtfi.faultengine import _redrawn_value
from crtfi.keytools import derive_crt
from crtfi.modmath import bellcore_extract, mod_exp
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


def tiny_unprotected():
    return build("unprotected", TINY, r_bits=5, build_seed=0)


def run(prog, message=2, seed=0, plan=()):
    return execute(prog, program_inputs(prog, TINY, message), seed=seed, plan=plan)


# ---------------------------------------------------------------- validation


def test_catalog_program_has_no_error_defects():
    assert is_well_formed(tiny_unprotected())


def test_read_before_write_is_a_defect():
    b = ProgramBuilder("bad", ())
    b.const("a", 1)
    b.add("c", "a", "ghost")
    b.ret("c")
    prog = b.instrs  # build() would raise, validate the raw shape instead
    from crtfi.circuit import Program, ProgramMeta

    p = Program("bad", (), tuple(prog), ProgramMeta(phases=("main",) * 3))
    kinds = {d.kind for d in validate(p) if d.severity == "error"}
    assert "def-before-use" in kinds


def test_instruction_after_return_is_a_defect():
    from crtfi.circuit import Program, ProgramMeta

    instrs = (Const("a", 1), Ret("a"), Const("b", 2))
    p = Program("bad", (), instrs, ProgramMeta(phases=("main",) * 3))
    kinds = {d.kind for d in validate(p) if d.severity == "error"}
    assert "misplaced-return" in kinds


def test_dead_store_is_only_a_warning():
    from crtfi.circuit import Program, ProgramMeta

    instrs = (Const("a", 1), Const("b", 2), Ret("a"))
    p = Program("w", (), instrs, ProgramMeta(phases=("main",) * 3))
    defects = validate(p)
    assert [d.kind for d in defects] == ["dead-store"]
    assert defects[0].severity == "warning"
    assert is_well_formed(p)


def test_every_emitted_check_is_a_verification_check():
    # build reads the checks off the stream, however they were written
    b = ProgramBuilder("direct", ("M",))
    b.inp("m", "M")
    b.check("m", "m")
    emitted = b.emit(CheckEq("m", "m"), "verify")
    b.ret("m")
    assert b.build().meta.verification_checks == (1, emitted)


# --------------------------------------------------------------- evaluation


def test_nominal_tiny_signature():
    out = run(tiny_unprotected())
    assert out.result == Signature(30)
    assert mod_exp(2, 43, 77) == 30


def test_zeroing_the_q_half_shifts_the_output_to_44():
    prog = tiny_unprotected()
    plan = (FaultAction(WriteOf(find_write(prog, "sq")), FaultKind.ZERO),)
    out = run(prog, plan=plan)
    # brute CRT of (2 mod 7, 0 mod 11) is 44; the gcd then yields 7
    assert [x for x in range(77) if x % 7 == 2 and x % 11 == 0] == [44]
    assert out.result == Signature(44)
    assert bellcore_extract(77, 30, 44, 7, 11).factor == 7


def test_skipped_check_counts_as_passed():
    prog = build("straightforward", TINY, r_bits=5, build_seed=0)
    checks = [i for i, ins in enumerate(prog.instrs) if isinstance(ins, CheckEq)]
    plan = (FaultAction(SkipRange(checks[0], checks[0]), FaultKind.SKIP),)
    out = run(prog, plan=plan)
    assert out.result == Signature(30)


def test_empty_plan_is_deterministic():
    prog = build("aumuller", TINY, r_bits=5, build_seed=0)
    a = run(prog, seed=9)
    b = run(prog, seed=9)
    assert a == b
    c = run(prog, seed=10)
    assert a.draws != c.draws


def test_write_once_nominal_trace():
    prog = build("vigilant", TINY, r_bits=4, build_seed=0)
    out = run(prog, seed=3)
    regs = [reg for _i, reg, _v in out.trace]
    assert len(regs) == len(set(regs))


def test_write_fault_is_permanent():
    prog = tiny_unprotected()
    idx = find_write(prog, "sq")
    out = run(prog, plan=(FaultAction(WriteOf(idx), FaultKind.RANDOMIZE, 5),))
    stored = dict((i, v) for i, _r, v in out.trace)
    assert stored[idx] == 5
    # the recombination consumed the faulted value, not the nominal 8
    assert out.result != Signature(30)


def test_read_fault_is_transient():
    prog = tiny_unprotected()
    idx = find_write(prog, "sq")
    # sq feeds two reads; fault only the recombination difference
    readers = [
        (i, slot)
        for i, ins in enumerate(prog.instrs)
        for slot, reg in reads_of(ins)
        if reg == "sq"
    ]
    assert len(readers) >= 2
    i0, s0 = readers[0]
    out = run(prog, plan=(FaultAction(ReadOf(i0, s0), FaultKind.RANDOMIZE, 5),))
    stored = dict((i, v) for i, _r, v in out.trace)
    assert stored[idx] == 8  # 2**3 mod 11, untouched in storage
    assert out.result != run(prog).result


def test_faults_do_not_shift_random_draws():
    prog = build("aumuller", TINY, r_bits=5, build_seed=0)
    clean = run(prog, seed=7)
    idx = find_write(prog, "spp")
    faulted = execute(
        prog,
        program_inputs(prog, TINY, 2),
        seed=7,
        plan=(FaultAction(WriteOf(idx), FaultKind.ZERO),),
    )
    assert clean.draws == faulted.draws


def test_skipped_store_leaves_seeded_junk():
    prog = tiny_unprotected()
    idx = find_write(prog, "sq")
    out = run(prog, seed=11, plan=(FaultAction(SkipRange(idx, idx), FaultKind.SKIP),))
    stored = dict((i, v) for i, _r, v in out.trace)
    assert stored[idx] == skip_fill_value(11, idx)


def test_skipped_return_releases_the_zero_buffer():
    prog = tiny_unprotected()
    ret_idx = len(prog.instrs) - 1
    out = run(prog, plan=(FaultAction(SkipRange(ret_idx, ret_idx), FaultKind.SKIP),))
    assert out.result == Signature(0)


def test_fault_driving_modulus_to_zero_crashes():
    prog = tiny_unprotected()
    idx = find_write(prog, "p")
    # p is a raw input load, so hit the read slot of the exponentiation
    readers = [
        (i, slot)
        for i, ins in enumerate(prog.instrs)
        for slot, reg in reads_of(ins)
        if reg == "p"
    ]
    i0, s0 = readers[-1]
    out = run(prog, plan=(FaultAction(ReadOf(i0, s0), FaultKind.ZERO),))
    assert isinstance(out.result, Crash)
    assert out.result.reason == "bad-modulus"


def test_error_outputs_compare_opaquely():
    assert same_result(ErrorOut(3), ErrorOut(8))
    assert not same_result(ErrorOut(3), Signature(3))
    assert same_result(Signature(4), Signature(4))
    assert not same_result(Crash("bad-modulus"), Crash("not-invertible"))


# --------------------------------------------------------------- site listing


def test_no_skip_sites_at_zero_window_length():
    sites = enumerate_sites(tiny_unprotected(), max_skip_len=0)
    assert not any(isinstance(s, SkipRange) for s in sites)


def test_three_instruction_window_count():
    b = ProgramBuilder("w3", ())
    b.set_phase("main")
    b.const("a", 3)
    b.add("b", "a", "a")
    b.ret("b")
    prog = b.build()
    wins = [s for s in enumerate_sites(prog, max_skip_len=2) if isinstance(s, SkipRange)]
    assert {(w.first, w.last) for w in wins} == {(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)}


def test_skip_windows_never_cover_input_loads():
    prog = tiny_unprotected()
    loads = {i for i, ins in enumerate(prog.instrs) if isinstance(ins, LoadInput)}
    wins = [s for s in enumerate_sites(prog, max_skip_len=2) if isinstance(s, SkipRange)]
    assert wins
    for w in wins:
        assert not (set(range(w.first, w.last + 1)) & loads)


def test_site_listing_matches_a_manual_walk():
    prog = tiny_unprotected()
    sites = enumerate_sites(prog, max_skip_len=0)
    writes = [s for s in sites if isinstance(s, WriteOf)]
    reads = [s for s in sites if isinstance(s, ReadOf)]
    # the released result (output tail) and the Return read are not sites
    tail = set(prog.meta.output_tail)
    want_writes = sum(
        1
        for i, ins in enumerate(prog.instrs)
        if dst_of(ins) is not None and not isinstance(ins, LoadInput) and i not in tail
    )
    want_reads = sum(
        len(reads_of(ins))
        for i, ins in enumerate(prog.instrs)
        if not isinstance(ins, Ret) and i not in tail
    )
    assert len(writes) == want_writes
    assert len(reads) == want_reads
    assert writes and reads


# ------------------------------------------------------------------- dumping


def test_dump_parse_round_trip():
    # the transforms add the infection, onereg and factor metadata lines
    refusals = (NotTestBased, NotInfective, UnrecognizedInfectionShape, NoVerifications)
    rewrites = (to_infective, to_testbased, lambda prog: harden(prog, 2))
    b = ProgramBuilder("unreduced-factor", ("M",))  # a factor without a ring
    b.inp("m", "M")
    b.factor("c", "m", "m", None, "d")
    b.ret("m")
    progs = [b.build()]
    for entry in catalog():
        source = build(entry.algo, TINY, r_bits=5, build_seed=1)
        progs.append(source)
        for rewrite in rewrites:
            try:
                progs.append(rewrite(source))
            except refusals:
                pass
    for prog in progs:
        assert parse_dump(dump_program(prog)) == prog
        assert program_digest(parse_dump(dump_program(prog))) == program_digest(prog)


@pytest.mark.parametrize(
    "line",
    [
        "1: s <- modexp m m",  # no modulus
        "1: s <- reduce m",
        "1: s <- const",
        "1: s <- const seven",
        "1: s <- randprime 5 avoid",
        "1: s <- add m",
        "1: s <- add m m mod",
        "1: s <- add m m modulo m",
        "1: s <- add m m mod m extra",
        "1: s <- melt m m",
        "1: s <- checkeq m m",  # a check stores nothing
        "1: return",
        "1: m <-",
        "1:",
        "# nreg",
        "# checksum-power two",
        "# factor c a b",
        # metadata naming an instruction the program does not have
        "# checks 1",
        "# infection 0 999",
        "# tail -1",
        "# factor c a b - 999 0 0",
        "# factor c a b m 0 2 0",
        # phases that do not tag each instruction once
        "# phases load main",
        "# phases",
    ],
)
def test_malformed_program_lines_are_refused(line):
    with pytest.raises(ValueError, match="cannot parse line"):
        parse_dump(f"# inputs m\n0: m <- input m\n{line}\n")


@pytest.mark.parametrize(
    "site, kind, detail, value",
    [
        (WriteOf(3), FaultKind.RANDOMIZE, "Randomize needs a replacement value", None),
        (ReadOf(3, 0), FaultKind.SKIP, "Skip applies to SkipRange sites only", None),
        (SkipRange(2, 3), FaultKind.ZERO, "SkipRange sites take Skip faults only", None),
        # a value on a Zero or Skip action would run as the bare kind yet compare unequal
        (WriteOf(3), FaultKind.ZERO, "Zero takes no replacement value", 5),
        (ReadOf(3, 0), FaultKind.ZERO, "Zero takes no replacement value", 0),
        (SkipRange(2, 3), FaultKind.SKIP, "Skip takes no replacement value", 5),
    ],
)
def test_a_fault_action_of_the_wrong_kind_for_its_site_is_refused(site, kind, detail, value):
    with pytest.raises(ValueError, match=detail):
        FaultAction(site, kind, value)


SITES = (WriteOf(3), ReadOf(3, 1), SkipRange(2, 3))
ACTIONS = (
    FaultAction(WriteOf(3), FaultKind.ZERO),
    FaultAction(ReadOf(3, 1), FaultKind.RANDOMIZE, 5),
    FaultAction(SkipRange(2, 3), FaultKind.SKIP),
)


def test_fault_sites_and_actions_are_slotted_values_that_keep_repr_and_order():
    for obj in (*SITES, *ACTIONS):
        assert not hasattr(obj, "__dict__"), obj
        for twin in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
            assert twin == obj and hash(twin) == hash(obj)
    # probe rounds seed their redraws from repr(site), so it must not change
    assert [repr(s) for s in SITES] == [
        "WriteOf(index=3)", "ReadOf(index=3, slot=1)", "SkipRange(first=2, last=3)",
    ]
    assert _redrawn_value(WriteOf(3), 100, 7, 42, 0) == 32
    # each class still sorts by its fields
    assert sorted([WriteOf(9), WriteOf(-1), WriteOf(3)]) == [WriteOf(-1), WriteOf(3), WriteOf(9)]
    assert sorted([ReadOf(3, 1), ReadOf(2, 2), ReadOf(3, 0)]) == [
        ReadOf(2, 2), ReadOf(3, 0), ReadOf(3, 1),
    ]
    assert sorted([SkipRange(2, 3), SkipRange(1, 4), SkipRange(2, 2)]) == [
        SkipRange(1, 4), SkipRange(2, 2), SkipRange(2, 3),
    ]


def test_operand_slots_and_moduli_per_instruction():
    assert reads_of(Add("x", "a", "b")) == ((0, "a"), (1, "b"))
    assert reads_of(Mul("x", "a", "b", "m")) == ((0, "a"), (1, "b"), (2, "m"))
    assert reads_of(ModExp("x", "b", "e", "m")) == ((0, "b"), (1, "e"), (2, "m"))
    assert reads_of(ModReduce("x", "a", "m")) == reads_of(ModInv("x", "a", "m"))
    assert reads_of(DrawRandomPrime("r", 5, ("p",))) == ()
    assert modulus_reg(Add("x", "a", "b", "m")) == "m"
    assert modulus_reg(Add("x", "a", "b")) is None
    assert modulus_reg(ModInv("x", "a", "m")) == "m"
    # a check compares in its ring but stores nothing reduced by it
    assert modulus_reg(CheckEq("a", "b", "m")) is None


def test_unprotected_dump_text_is_stable():
    text = dump_program(tiny_unprotected())
    lines = text.splitlines()
    assert lines[0] == "# program unprotected"
    assert lines[1] == "# inputs M p q dp dq iq"
    assert lines[2] == "0: m <- input M"
    body = [ln for ln in lines if ln and not ln.startswith("#")]
    assert body[-1].endswith("return s")
    assert "sp <- modexp m dp mod p" in text
