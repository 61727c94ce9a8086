"""The campaign runner against the reference interpreter.

FaultRunner.run(plan) must equal execute(..., plan=plan).result on every
plan, so these tests compare the two on random plans of order 1 to 3 and on
whole order-1 campaign plan lists. FaultRunner.run_batch must give each
lane the result of its own plan, so it is compared with both on random
batches of mixed plans of order 1 to 4, on one-site batches of random
values and on the same plan lists, row by row and in fixed-size chunks.
Beyond the catalog's shapes, both runners are compared with the reference
on random programs written through ProgramBuilder, under random plans, and
on plans whose sites lie past either end of the program. The compiled
reader masks hold instruction j as bit n-1-j, and run re-evaluates in
ascending index order, each instruction at most once. Plans that share a
first fault, run on one runner, resume from the record the runner keeps
of it: their results equal the reference's whether the second faulted
index lies below, at or past the record's horizon, on the catalog and on
random programs; a warm run walks nothing the record holds, and at most
a bounded number of records are kept, the oldest dropped first. Every
runner of a program shares its compiled top tuple.
A random program's dump must parse back to it. A plan that names one site
twice, and a program whose phases do not tag each instruction once, are
refused. faultengine keeps one runner per (program, key, message, seed);
the last tests check that it runs each baseline once and changes no
result.
"""

import functools
import math
from collections import defaultdict
from dataclasses import replace
from operator import add, mul, sub

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import crtfi.circuit
import crtfi.faultengine
from crtfi.circuit import (
    OPCODES,
    Add,
    CheckEq,
    Const,
    Crash,
    Div,
    DrawRandomPrime,
    ErrorOut,
    FaultAction,
    FaultKind,
    FaultRunner,
    LoadInput,
    Program,
    ProgramBuilder,
    ProgramMeta,
    ReadOf,
    Ret,
    Signature,
    SkipRange,
    WriteOf,
    draw_prime_value,
    dst_of,
    dump_program,
    execute,
    find_write,
    modulus_reg,
    parse_dump,
    plan_faults,
    program_digest,
    reads_of,
    registers_of,
)
from crtfi.countermeasures import build, catalog, program_inputs
from crtfi.faultengine import (
    CampaignSpec,
    plan_persists,
    replay_plan,
    run_campaign,
    site_action_table,
    _runner,
)
from crtfi.keytools import derive_crt
from crtfi.transforms import harden, to_infective, to_testbased

TINY = derive_crt(7, 11, 43)
MESSAGES = (2, 3, 75)
SEEDS = (0, 42)

PROGRAMS = {e.algo: build(e.algo, TINY, r_bits=5, build_seed=0) for e in catalog()}
PROGRAMS["aumuller-infective-x2"] = harden(PROGRAMS["aumuller-infective"], 2)
# the catalog and every kind of rewrite result
BATCH_PROGRAMS = {
    **PROGRAMS,
    "shamir-x2": harden(PROGRAMS["shamir"], 2),
    "to_infective(straightforward)": to_infective(PROGRAMS["straightforward"]),
    "to_testbased(aumuller-infective)": to_testbased(PROGRAMS["aumuller-infective"]),
    "to_testbased(blomer)": to_testbased(PROGRAMS["blomer"]),
}


@functools.cache
def runner(name, message, seed):
    prog = BATCH_PROGRAMS[name]
    return FaultRunner(prog, program_inputs(prog, TINY, message), seed)


def reference(name, message, seed, plan):
    prog = BATCH_PROGRAMS[name]
    return execute(prog, program_inputs(prog, TINY, message), seed=seed, plan=plan).result


def batch(plans, n):
    """run_batch's arguments for FaultAction plans over n instructions, lane
    k being plans[k]: plan_faults' reading of each plan, lists in plan order."""
    writes, reads, skips = defaultdict(list), defaultdict(list), defaultdict(list)
    for lane, plan in enumerate(plans):
        for act in plan:
            site = act.site
            v = act.value or 0
            if isinstance(site, SkipRange):
                for j in range(max(site.first, 0), min(site.last, n - 1) + 1):
                    skips[j].append(lane)
            elif not 0 <= site.index < n:
                continue
            elif isinstance(site, WriteOf):
                writes[site.index].append((lane, v))
            else:
                reads[site.index].append((lane, site.slot, v))
    return len(plans), writes, reads, skips


# 0, negative, small (often a register's nominal value) and above every modulus
VALUES = st.one_of(
    st.just(0),
    st.integers(-(10**6), -1),
    st.integers(1, 80),
    st.integers(77, 10**12),
)


def _value_action(draw, site):
    if draw(st.booleans()):
        return FaultAction(site, FaultKind.ZERO)
    return FaultAction(site, FaultKind.RANDOMIZE, draw(VALUES))


def _window(draw, n, around):
    first = draw(st.integers(max(0, around - 2), around))
    last = draw(st.integers(first, min(n - 1, first + 3)))
    return FaultAction(SkipRange(first, last), FaultKind.SKIP)


def _index_of(act):
    return act.site.first if isinstance(act.site, SkipRange) else act.site.index


@st.composite
def plans(draw, n, longest=3):
    """Plans of order 1 to longest, later actions often aimed at an earlier
    one's index or window, each site named once."""

    def fresh():
        shape = draw(st.sampled_from(("write", "read", "skip")))
        i = draw(st.integers(0, n - 1))
        if shape == "skip":
            return _window(draw, n, i)
        site = WriteOf(i) if shape == "write" else ReadOf(i, draw(st.integers(0, 2)))
        return _value_action(draw, site)

    acts = [fresh()]
    for _ in range(draw(st.integers(0, longest - 1))):
        prev = draw(st.sampled_from(acts))
        how = draw(st.sampled_from(("fresh", "same-index", "overlapping-skip", "write-in-skip")))
        if how == "same-index":
            i = _index_of(prev)
            site = draw(st.sampled_from((WriteOf(i), ReadOf(i, 0), ReadOf(i, 1), ReadOf(i, 2))))
            act = _value_action(draw, site)
        elif how == "overlapping-skip":
            act = _window(draw, n, _index_of(prev))
        elif how == "write-in-skip":
            if isinstance(prev.site, SkipRange):
                i = draw(st.integers(prev.site.first, prev.site.last))
                act = _value_action(draw, WriteOf(i))
            else:
                act = _window(draw, n, prev.site.index)
        else:
            act = fresh()
        if all(act.site != a.site for a in acts):  # plan_faults refuses a site named twice
            acts.append(act)
    return tuple(acts)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_runner_matches_the_reference_on_random_plans(name):
    n = len(PROGRAMS[name].instrs)

    @settings(max_examples=80)
    @given(plan=plans(n), message=st.sampled_from(MESSAGES), seed=st.sampled_from(SEEDS))
    @example(  # skip, then a write override on the same index
        plan=(FaultAction(SkipRange(8, 10), FaultKind.SKIP),
              FaultAction(WriteOf(9), FaultKind.RANDOMIZE, 5)),
        message=2, seed=0)
    @example(  # overlapping windows over the Return
        plan=(FaultAction(SkipRange(n - 3, n - 2), FaultKind.SKIP),
              FaultAction(SkipRange(n - 2, n - 1), FaultKind.SKIP)),
        message=3, seed=42)
    def check(plan, message, seed):
        assert runner(name, message, seed).run(plan) == reference(name, message, seed, plan)

    check()


def test_a_plan_that_faults_one_site_twice_is_refused():
    prog = PROGRAMS["aumuller"]
    n = len(prog.instrs)
    w = _first_data_write(prog)
    twice = [
        (_read(n - 1, 0, -4), FaultAction(ReadOf(n - 1, 0), FaultKind.ZERO)),
        (_write(w, 5), _read(w + 1, 0, 3), FaultAction(WriteOf(w), FaultKind.ZERO)),
        (_skip(w, w + 1), _write(w, 5), _skip(w, w + 1)),
        (_write(n + 4, 1), _write(n + 4, 2)),  # a site past the end is still one site
        (_write(-2, 1), FaultAction(WriteOf(-2), FaultKind.ZERO)),  # and one before the start
        (_read(w, 7, 1), _read(w, 7, 2)),  # and a slot past the instruction's read slots
    ]
    inputs = program_inputs(prog, TINY, 2)
    for plan in twice:
        for run in (
            lambda: execute(prog, inputs, seed=42, plan=plan),
            lambda: runner("aumuller", 2, 42).run(plan),
            lambda: replay_plan(prog, TINY, 2, plan, 42),
            lambda: plan_persists(prog, TINY, 2, plan, 42),
        ):
            with pytest.raises(ValueError, match="one site twice"):
                run()
    # sites that share an index or overlap are still different sites
    b = next(i for i, ins in enumerate(prog.instrs) if i > w and len(reads_of(ins)) >= 2)
    different = [
        (_read(b, 0, 3), FaultAction(ReadOf(b, 1), FaultKind.ZERO)),
        (_skip(w, w + 1), _skip(w + 1, w + 2)),
        (_skip(w, w + 2), _write(w + 1, 5)),
    ]
    for plan in different:
        want = execute(prog, inputs, seed=42, plan=plan).result
        assert runner("aumuller", 2, 42).run(plan) == want, plan
        assert replay_plan(prog, TINY, 2, plan, 42)[0] == want, plan


def _nominal(prog, base, site):
    """The value a data site carries in the baseline run (0 past the read slots)."""
    if isinstance(site, WriteOf):
        return base.get(dst_of(prog.instrs[site.index]), 0)
    reg = dict(reads_of(prog.instrs[site.index])).get(site.slot)
    return base.get(reg, 0)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_lanes_match_one_run_per_value_and_the_reference(name):
    prog = PROGRAMS[name]
    n = len(prog.instrs)

    @settings(max_examples=60)
    @given(
        index=st.integers(0, n - 1),
        slot=st.one_of(st.none(), st.integers(0, 3)),  # slots 1 and 2 read exponents, moduli
        values=st.lists(st.one_of(VALUES, st.just("nominal")), min_size=1, max_size=10),
        message=st.sampled_from(MESSAGES),
        seed=st.sampled_from(SEEDS),
    )
    def check(index, slot, values, message, seed):
        r = runner(name, message, seed)
        site = WriteOf(index) if slot is None else ReadOf(index, slot)
        nominal = _nominal(prog, r.baseline.regs(), site)
        values = [nominal if v == "nominal" else v for v in values]
        plans_ = [(FaultAction(site, FaultKind.RANDOMIZE, v),) for v in values]
        got = r.run_batch(*batch(plans_, n))
        assert got == [r.run(plan) for plan in plans_]
        assert got == [reference(name, message, seed, plan) for plan in plans_]

    check()


def _skip(first, last):
    return FaultAction(SkipRange(first, last), FaultKind.SKIP)


def _write(index, value):
    return FaultAction(WriteOf(index), FaultKind.RANDOMIZE, value)


def _read(index, slot, value):
    return FaultAction(ReadOf(index, slot), FaultKind.RANDOMIZE, value)


def _first_reduced(prog):
    """The first instruction of prog reducing by a modulus, and the slot that reads it."""
    for i, ins in enumerate(prog.instrs):
        for slot, reg in reads_of(ins):
            if reg == modulus_reg(ins):
                return i, slot
    raise AssertionError(f"{prog.name} reduces by no modulus")


@pytest.mark.parametrize("name", sorted(BATCH_PROGRAMS))
def test_batches_of_mixed_plans_match_the_reference(name):
    prog = BATCH_PROGRAMS[name]
    n = len(prog.instrs)
    w, ret = _first_data_write(prog), n - 1
    e, m = _first_reduced(prog)

    @settings(max_examples=40)
    @given(
        plans_=st.lists(plans(n, longest=4), min_size=1, max_size=12),
        message=st.sampled_from(MESSAGES),
        seed=st.sampled_from(SEEDS),
    )
    @example(  # a skip window over a written index, with a write there
        plans_=[(_skip(w, w + 1), _write(w, 5)), (_write(w, 5), _skip(w, w)), (_skip(w, w),)],
        message=2, seed=0)
    @example(  # read slots past the instruction's slots, beside one inside them
        plans_=[(_read(ret, 1, 5),), (_read(e, 3, 0), _read(w, 7, 9)), (_read(e, 0, 4),)],
        message=3, seed=42)
    @example(  # a skipped Return, alone, in a window and after a fault that ends the run
        plans_=[(_skip(ret, ret),), (_skip(ret - 1, ret),), (_read(e, m, 0), _skip(ret, ret))],
        message=75, seed=0)
    @example(  # every lane ends: a modulus below 2 crashes each one
        plans_=[(_read(e, m, v),) for v in (0, 1, -5)], message=2, seed=42)
    @example(  # one lane's modulus of 0 sends every lane through the scalar rule
        plans_=[(_read(e, m, v),) for v in (0, 3, 97, 10**6)], message=3, seed=0)
    def check(plans_, message, seed):
        got = runner(name, message, seed).run_batch(*batch(plans_, n))
        assert got == [reference(name, message, seed, plan) for plan in plans_]

    check()


@pytest.mark.parametrize("name", sorted(BATCH_PROGRAMS))
def test_a_batch_can_end_every_lane_or_fall_back_to_the_kernel(name):
    prog = BATCH_PROGRAMS[name]
    n = len(prog.instrs)
    e, m = _first_reduced(prog)
    r = runner(name, 2, 42)
    # every lane crashes at the first reduction, long before the Return
    plans_ = [(_read(e, m, v),) for v in (0, 1, -5)]
    got = r.run_batch(*batch(plans_, n))
    assert got == [Crash("bad-modulus")] * 3
    assert got == [reference(name, 2, 42, plan) for plan in plans_]
    # one lane's modulus of 0 makes the vector kernel decline the whole batch
    ins = prog.instrs[e]
    base = r.baseline.regs()
    xs = [base[reg] for _slot, reg in reads_of(ins)]
    xs[m] = [0, 3, 97, 10**6]
    assert OPCODES[type(ins)].vector(xs, e) is None
    plans_ = [(_read(e, m, v),) for v in xs[m]]
    got = r.run_batch(*batch(plans_, n))
    assert got[0] == Crash("bad-modulus")
    assert got == [reference(name, 2, 42, plan) for plan in plans_]


# what random_programs emits between the loads and the Return
KINDS = ("const", "draw", "add", "sub", "mul", "div", "reduce", "exp", "inv", "check")
ARITH = {"add": add, "sub": sub, "mul": mul}


@st.composite
def random_programs(draw):
    """(program, inputs, seed): a program of 5 to 40 instructions written
    through ProgramBuilder, with every opcode, whose fault-free run on
    inputs under seed releases a signature. Moduli, divisors, exponents,
    inverted values and checks are chosen from the values the baseline
    computes, so that it runs cleanly while a fault can still crash it (a
    modulus below 2, an inexact division, a negative exponent, a value with
    no inverse) or fail a check. Unreduced products and moduli read leaves
    only (loads, constants, draws and reduced values), so that no fault
    makes a value grow without bound."""
    seed = draw(st.sampled_from(SEEDS))
    names = ("x", "y")
    inputs = {r: draw(st.integers(-50, 10**6)) for r in names}
    b = ProgramBuilder("random", names)
    vals, leaves = {}, set()

    def store(dst, v, leaf):
        vals[dst] = v
        if leaf:
            leaves.add(dst)

    def pick(ok=lambda r: True):
        regs = [r for r in vals if ok(r)]
        return draw(st.sampled_from(regs)) if regs else None

    def modulus():
        m = pick(lambda r: r in leaves and vals[r] >= 2)
        if m is None:
            m = f"k{len(b.instrs)}"
            store(m, draw(st.integers(2, 10**6)), True)
            b.const(m, vals[m])
        return m

    for r in names:
        store(r, inputs[r], True)
        b.inp(r)
    size = draw(st.integers(5, 38))
    while len(b.instrs) < size - 1:
        kind = draw(st.sampled_from(KINDS))
        reduced = draw(st.booleans())
        dst = f"v{len(b.instrs)}"
        if kind == "const":
            store(dst, draw(st.integers(-3, 10**6)), True)
            b.const(dst, vals[dst])
        elif kind == "draw":
            avoid = tuple(draw(st.lists(st.sampled_from(sorted(vals)), max_size=2, unique=True)))
            bits = draw(st.integers(5, 9))
            store(dst, draw_prime_value(seed, len(b.instrs), bits, {vals[r] for r in avoid}), True)
            b.draw(dst, bits, avoid)
        elif kind in ARITH:
            leafy = kind == "mul" and not reduced
            a, c = (pick(lambda r: r in leaves or not leafy) for _ in range(2))
            m = modulus() if reduced else None
            v = ARITH[kind](vals[a], vals[c])
            store(dst, v % vals[m] if m else v, reduced)
            getattr(b, kind)(dst, a, c, m)
        elif kind == "div":
            c = pick(lambda r: r in leaves and vals[r] != 0)
            if c is None:
                continue
            if draw(st.booleans()):  # a multiple of c, so that c does not divide it trivially
                f, a = pick(lambda r: r in leaves), f"t{len(b.instrs)}"
                store(a, vals[f] * vals[c], False)
                b.mul(a, f, c)
            else:
                a = pick(lambda r: vals[r] % vals[c] == 0)
            m = modulus() if reduced else None
            v = vals[a] // vals[c]
            store(dst, v % vals[m] if m else v, reduced)
            b.emit(Div(dst, a, c, m))
        elif kind == "reduce":
            a, m = pick(), modulus()
            store(dst, vals[a] % vals[m], True)
            b.reduce(dst, a, m)
        elif kind == "exp":
            a, e, m = pick(), pick(lambda r: vals[r] >= 0), modulus()
            if e is None:
                continue
            store(dst, pow(vals[a], vals[e], vals[m]), True)
            b.exp(dst, a, e, m)
        elif kind == "inv":
            m = modulus()
            a = pick(lambda r: math.gcd(vals[r], vals[m]) == 1)
            if a is None:
                continue
            store(dst, pow(vals[a], -1, vals[m]), True)
            b.inv(dst, a, m)
        else:
            m = modulus() if reduced else None
            a = pick()
            if m and draw(st.booleans()):  # a's residue, held in another register
                store(dst, vals[a] % vals[m], True)
                b.reduce(dst, a, m)
            c = pick(lambda r: (vals[r] - vals[a]) % vals[m] == 0 if m else vals[r] == vals[a])
            b.check(a, c, m)
    b.ret(pick())
    return b.build(), inputs, seed


@settings(max_examples=150)
@given(data=st.data())
def test_random_programs_give_the_reference_result_on_both_runner_paths(data):
    prog, inputs, seed = data.draw(random_programs(), label="program")
    n = len(prog.instrs)
    assert 5 <= n <= 40
    plans_ = data.draw(st.lists(plans(n), min_size=1, max_size=8), label="plans")
    want = [execute(prog, inputs, seed=seed, plan=plan).result for plan in plans_]
    r = FaultRunner(prog, inputs, seed)
    assert [r.run(plan) for plan in plans_] == want
    assert r.run_batch(*batch(plans_, n)) == want
    # the dump names each instruction's class by its keyword, and parses back
    text = dump_program(prog)
    assert parse_dump(text) == prog
    assert program_digest(parse_dump(text)) == program_digest(prog)


def _assert_reader_bits(prog):
    """Bit n-1-j of readers[i] is set exactly when instruction j's operands,
    lookups included, name the register instruction i writes."""
    n = len(prog.instrs)
    readers = prog.compiled.readers
    assert len(readers) == n
    named = [{r for r in registers_of(ins)[1:] if r is not None} for ins in prog.instrs]
    for i, ins in enumerate(prog.instrs):
        reg = dst_of(ins)
        want = [reg is not None and reg in named[j] for j in range(n)]
        assert readers[i] < 1 << n
        assert [bool(readers[i] >> (n - 1 - j) & 1) for j in range(n)] == want, (prog.name, i)


@pytest.mark.parametrize("name", sorted(BATCH_PROGRAMS))
def test_reader_masks_hold_instruction_j_as_bit_n_minus_1_minus_j(name):
    _assert_reader_bits(BATCH_PROGRAMS[name])


@settings(max_examples=60)
@given(data=st.data())
def test_reader_masks_of_random_programs_hold_the_same_bit_order(data):
    prog, _inputs, _seed = data.draw(random_programs(), label="program")
    _assert_reader_bits(prog)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_sites_past_either_end_match_the_reference(name):
    n = len(PROGRAMS[name].instrs)
    w = _first_data_write(PROGRAMS[name])
    plans_ = [
        (_skip(-2, 1),),
        (_skip(n - 2, n + 3),),
        (_skip(-3, -1),),
        (_skip(n, n + 2),),
        (_skip(-5, n + 5),),
        (_write(n, 5),),
        (_write(n + 4, 0),),
        (_read(n, 0, 7),),
        (_read(n + 4, 1, 3),),
        (_skip(-2, 1), _write(n + 4, 9)),
        (_skip(n - 2, n + 3), _read(n, 0, 1), _write(w, 11)),
        (_skip(-2, 1), _skip(n - 2, n + 3), _write(w, 2)),
    ]
    for message, seed in ((2, 42), (75, 0)):
        r = runner(name, message, seed)
        want = [reference(name, message, seed, plan) for plan in plans_]
        assert [r.run(plan) for plan in plans_] == want
        assert r.run_batch(*batch(plans_, n)) == want


def _spied(r):
    """The list every call of r's bound rules appends its index to."""
    calls = []

    def spy(i, rule):
        def counted(values, env):
            calls.append(i)
            return rule(values, env)

        return counted

    r._bound = tuple(spy(i, rule) for i, rule in enumerate(r._bound))
    return calls


@pytest.mark.parametrize("name", ["aumuller-infective", "aumuller-infective-x2"])
def test_run_re_evaluates_in_ascending_order_each_instruction_once(name):
    """A spy over the runner's bound rules, on the erase-the-check grid's
    plan shapes: randomize a data write, then zero or skip a verification
    write. Each plan runs first with no first-fault record kept, then again
    from the record its first run kept, which walks nothing below the
    plan's second faulted index."""
    prog = PROGRAMS[name]
    r = FaultRunner(prog, program_inputs(prog, TINY, 2), 42)
    calls = _spied(r)
    verify = sorted({i for f in prog.meta.factors for i in (f.diff_idx, f.c_idx)})
    assert verify
    data = [
        i for i, ins in enumerate(prog.instrs)
        if i not in verify and dst_of(ins) is not None and not isinstance(ins, (LoadInput, Ret))
    ]
    longest = 0
    for d in data:
        nominal = r.baseline.regs()[dst_of(prog.instrs[d])]
        for v in (1, nominal + 1):
            for vi in verify:
                for check in (FaultAction(WriteOf(vi), FaultKind.ZERO), _skip(vi, vi)):
                    plan = (_write(d, v), check)
                    r._walks.clear()
                    calls.clear()
                    want = reference(name, 2, 42, plan)
                    assert r.run(plan) == want
                    assert calls == sorted(set(calls)), plan
                    assert d in calls and calls[0] >= min(d, vi)
                    longest = max(longest, len(calls))
                    calls.clear()
                    assert r.run(plan) == want
                    assert calls == sorted(set(calls)), plan
                    assert not calls or calls[0] >= max(d, vi), plan
    assert longest > 10


def _first_two(plan, n):
    """The plan's lowest two faulted indices, as plan_faults decodes them."""
    pending = plan_faults(plan, n)[3]
    faulted = [i for i in range(n) if pending >> (n - 1 - i) & 1]
    return faulted[0], faulted[1]


def _tail(prog, base, j, k):
    """A fault at j > i1 for a plan's tail: a skip of j, or a value fault on it."""
    if k % 2 == 0:
        return _skip(j, j)
    dst = dst_of(prog.instrs[j])
    return _write(j, base[dst] + 1) if dst is not None else _read(j, 0, 1)


def _end_index(prog, inputs, seed, plan):
    """The index at which execute ends plan's run, None if it releases a
    signature: the shortest prefix of prog whose run ends the same way."""
    result = execute(prog, inputs, seed=seed, plan=plan).result
    if isinstance(result, Signature):
        return None
    return next(
        k for k in range(len(prog.instrs))
        if execute(replace(prog, instrs=prog.instrs[: k + 1]), inputs, seed=seed, plan=plan).result
        == result
    )


def _first_fault_groups(prog, inputs, seed):
    """(label, heads, i1, end, live): heads are the faults at i1 of plans
    that share one first-fault record; end is the index where the walk of
    the first head alone ends (None if it does not), live the last index
    reading a value it changes (None if not worked out)."""
    n = len(prog.instrs)
    base = execute(prog, inputs, seed=seed)
    at = {i: v for i, _reg, v in base.trace}
    w = _first_data_write(prog)
    e, m = _first_reduced(prog)
    rd = next(i for i, ins in enumerate(prog.instrs) if i > w and reads_of(ins) and dst_of(ins))
    groups = [
        ("read", [(_read(rd, 0, 5),)], rd),
        ("skipped store, then a window from it spanning i2", [(_skip(w, w),), (_skip(w, w + 2),)], w),
        ("write plus read", [(_write(rd, 3), _read(rd, 0, 5))], rd),
        ("crash at i1", [(_read(e, m, 0),)], e),
    ]
    for c in prog.meta.verification_checks[:1]:
        groups.append(("skipped check", [(_skip(c, c),)], c))
    groups = [(*g, _end_index(prog, inputs, seed, g[1][0]), None) for g in groups]
    readers = prog.compiled.readers
    ended = absorbed = None
    for i in range(w, n - 2):
        if dst_of(prog.instrs[i]) is None:
            continue
        for v in (0, at[i] + 1):
            out = execute(prog, inputs, seed=seed, plan=(_write(i, v),))
            if ended is None and isinstance(out.result, ErrorOut) and out.result.check_index > i + 1:
                ended = ("error output below i2", [(_write(i, v),)], i, out.result.check_index, None)
            if absorbed is None and out.result == base.result:
                changed = [j for j, _reg, x in out.trace if x != at[j]]
                live = max((n - 1 - b for j in changed for b in range(n) if readers[j] >> b & 1),
                           default=n)
                if len(changed) > 1 and live < n - 2:
                    absorbed = ("absorbed before i2", [(_write(i, v),)], i, None, live)
    return groups + [g for g in (ended, absorbed) if g], base.regs()


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_plans_that_share_a_first_fault_resume_from_its_record(name):
    """Plans of one first fault run on one runner, their second faulted
    index i2 below, at and above the kept record's horizon, each giving the
    reference result. Below i2 a run walks only what the record lacks, and
    the record then reaches i2, or the end of the program once its walk
    ended. A walk that ends below i2 ends the plan; one absorbed below i2
    leaves the result of the plan without it."""
    prog = PROGRAMS[name]
    n = len(prog.instrs)
    inputs = program_inputs(prog, TINY, 2)
    r = FaultRunner(prog, inputs, 42)
    calls = _spied(r)
    groups, base = _first_fault_groups(prog, inputs, 42)
    labels = {g[0] for g in groups}
    assert {"read", "write plus read", "crash at i1"} <= labels
    assert next(g for g in groups if g[0] == "crash at i1")[3] == _first_reduced(prog)[0]
    for label, heads, i1, end, live in groups:
        last = max(a.site.last if isinstance(a.site, SkipRange) else a.site.index
                   for head in heads for a in head)
        js = list(range(last + 1, n))
        picks = [js[len(js) // 2], js[0], js[len(js) // 2], js[-1], js[len(js) // 4],
                 js[3 * len(js) // 4]]
        if end is not None and end > i1:  # before, at and past the end
            picks += [end - 1, end, min(end + 1, n - 1)]
        plans_ = [head + (_tail(prog, base, j, k),) for head in heads for k, j in enumerate(picks)]
        r._walks.clear()
        horizon = None  # where the kept record is complete, once there is one
        for plan in plans_:
            first, i2 = _first_two(plan, n)
            assert first == i1, (label, plan)
            want = reference(name, 2, 42, plan)
            calls.clear()
            assert r.run(plan) == want, (label, plan)
            assert calls == sorted(set(calls)), (label, plan)
            assert all(c >= (horizon or i1) for c in calls if c < i2), (label, plan, horizon)
            if end is not None and end < i2:
                assert all(c <= end for c in calls), (label, plan)
                horizon = n
            elif horizon != n:
                horizon = max(horizon or i1, i2)
            if live is not None and live < i2:
                assert want == reference(name, 2, 42, plan[len(heads[0]):]), (label, plan)
            (record,) = r._walks.values()
            assert record[1] == horizon, (label, plan)  # [changes, horizon, end]
    # faults at one index that differ only in whether it is skipped keep two records
    w = _first_data_write(prog)
    rd = next(i for i, ins in enumerate(prog.instrs) if i > w and reads_of(ins) and dst_of(ins))
    pairs = [(rd, _read(rd, 0, 5))]  # a store, and a check that the read fails
    pairs += [(c, _read(c, 0, 10**6 + 7)) for c in prog.meta.verification_checks[:1]]
    for i, act in pairs:
        r._walks.clear()
        for j in (n - 1, i + 1):
            for plan in ((_skip(i, i), act, _skip(j, j)), (act, _skip(j, j))):
                assert r.run(plan) == reference(name, 2, 42, plan), plan
        assert len(r._walks) == 2


def _faults_at(i, n):
    """One to three faults whose lowest index is i: a value fault on its
    write, on one of its reads, or a skip window starting at i."""

    @st.composite
    def faults(draw):
        shapes = draw(st.lists(st.sampled_from(("write", "read", "skip")),
                               min_size=1, max_size=3, unique=True))
        acts = []
        for shape in shapes:
            if shape == "skip":
                acts.append(_skip(i, draw(st.integers(i, min(n - 1, i + 2)))))
            else:
                site = WriteOf(i) if shape == "write" else ReadOf(i, draw(st.integers(0, 2)))
                acts.append(_value_action(draw, site))
        return tuple(acts)

    return faults()


@settings(max_examples=150)
@given(data=st.data())
def test_random_programs_resume_plans_from_a_shared_first_fault(data):
    prog, inputs, seed = data.draw(random_programs(), label="program")
    n = len(prog.instrs)
    i1 = data.draw(st.integers(0, n - 2), label="i1")
    head = data.draw(_faults_at(i1, n), label="first fault")
    tails = []
    for _ in range(data.draw(st.integers(2, 6), label="tails")):
        j = data.draw(st.integers(i1 + 1, n - 1))
        tail = data.draw(_faults_at(j, n))
        if j < n - 1 and data.draw(st.booleans()):
            tail += data.draw(_faults_at(data.draw(st.integers(j + 1, n - 1)), n))
        tails.append(tail)
    order = data.draw(st.permutations(range(len(tails))), label="order")
    r = FaultRunner(prog, inputs, seed)
    calls = _spied(r)
    for k in order + order:  # the second pass finds every walk recorded
        plan = head + tails[k]
        calls.clear()
        assert r.run(plan) == execute(prog, inputs, seed=seed, plan=plan).result
        assert calls == sorted(set(calls))


def test_the_first_fault_records_keep_a_bounded_number_dropping_the_oldest():
    prog = PROGRAMS["aumuller"]
    n = len(prog.instrs)
    r = FaultRunner(prog, program_inputs(prog, TINY, 2), 42)
    calls = _spied(r)
    bound = crtfi.circuit._WALK_MEMO_SIZE
    w = _first_data_write(prog)
    plans_ = [(_write(w, v), _skip(n - 1, n - 1)) for v in range(1, bound + 6)]
    for plan in plans_:
        r.run(plan)
        assert len(r._walks) <= bound
    assert len(r._walks) == bound
    for plan in plans_[5:]:  # the newest are all kept: nothing below i2 runs
        calls.clear()
        assert r.run(plan) == reference("aumuller", 2, 42, plan)
        assert not [c for c in calls if c < n - 1], plan
    for plan in plans_[:5]:  # the oldest were dropped, and their walks run again
        calls.clear()
        assert r.run(plan) == reference("aumuller", 2, 42, plan)
        assert w in calls, plan
    # single-fault plans keep no record
    r._walks.clear()
    r.run(plans_[0][:1])
    assert not r._walks


def test_runners_of_one_program_share_its_top_tuple():
    prog = PROGRAMS["vigilant"]
    a = FaultRunner(prog, program_inputs(prog, TINY, 2), 42)
    b = FaultRunner(prog, program_inputs(prog, TINY, 3), 0)
    assert a._top is b._top is prog.compiled.top
    assert prog.compiled.top == tuple(1 << k >> 1 for k in range(len(prog.instrs) + 1))


def test_lanes_that_all_write_the_baseline_value_evaluate_no_reader(monkeypatch):
    calls = []

    def counting(vector):
        def counted(xs, i):
            calls.append(i)
            return vector(xs, i)

        return vector and counted

    def counting_binder(bind):
        def counted_bind(ins, pos, i):
            rule = bind(ins, pos, i)

            def counted(values, env):
                calls.append(i)
                return rule(values, env)

            return counted

        return counted_bind

    for cls, row in list(OPCODES.items()):
        monkeypatch.setitem(
            OPCODES, cls, replace(row, bind=counting_binder(row.bind), vector=counting(row.vector))
        )
    prog = replace(PROGRAMS["aumuller"])  # a fresh Program compiles the counting rows
    w = _first_data_write(prog)
    reg = dst_of(prog.instrs[w])
    readers = {i for i, ins in enumerate(prog.instrs) if reg in dict(reads_of(ins)).values()}
    assert readers
    r = FaultRunner(prog, program_inputs(prog, TINY, 2), 42)
    nominal = r.baseline.regs()[reg]
    calls.clear()
    assert r.run_batch(3, {w: [(k, nominal) for k in range(3)]}, {}, {}) == [r.baseline.result] * 3
    assert not readers & set(calls)
    # one lane off the baseline value: the readers run, and the counter sees them
    values = (nominal, nominal + 1, nominal)
    got = r.run_batch(3, {w: list(enumerate(values))}, {}, {})
    assert readers & set(calls)
    assert got == [r.run((_write(w, v),)) for v in values]


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_runner_matches_the_reference_on_the_whole_order_one_plan_list(name):
    prog = PROGRAMS[name]
    spec = CampaignSpec(
        key=TINY, program=prog, messages=(2,), kinds=("zero", "randomize", "skip"),
        exhaustive_threshold=32, samples_per_site=8, r_bits=5,
    )
    table = site_action_table(prog, spec)
    plans_ = [(FaultAction(t.site, t.kind, v),) for t in table for v in t.values]
    assert len(plans_) > len(prog.instrs)
    for message in (2, 75):
        r = runner(name, message, 42)
        want = [reference(name, message, 42, plan) for plan in plans_]
        assert [r.run(plan) for plan in plans_] == want
        # the same list as batches: one row at a time, then in chunks that
        # mix sites and kinds
        n = len(prog.instrs)
        rows = []
        for t in table:
            rows += r.run_batch(*batch([(FaultAction(t.site, t.kind, v),) for v in t.values], n))
        assert rows == want
        chunks = []
        for s in range(0, len(plans_), 37):
            chunks += r.run_batch(*batch(plans_[s : s + 37], n))
        assert chunks == want


def test_a_draw_moves_off_the_value_a_fault_plants_in_its_avoid_set():
    checked = 0
    for name, prog in PROGRAMS.items():
        writer: dict[str, int] = {}
        for i, ins in enumerate(prog.instrs):
            if isinstance(ins, DrawRandomPrime):
                for reg in ins.distinct_from:
                    if reg not in writer:
                        continue
                    for seed in SEEDS:
                        drawn = runner(name, 2, seed).baseline.regs()[ins.dst]
                        plan = (FaultAction(WriteOf(writer[reg]), FaultKind.RANDOMIZE, drawn),)
                        assert runner(name, 2, seed).run(plan) == reference(name, 2, seed, plan)
                        checked += 1
            if dst_of(ins) is not None:
                writer[dst_of(ins)] = i
    assert checked


def test_runner_refuses_a_program_that_reads_before_writing():
    prog = Program(
        "ghost",
        ("M",),
        (LoadInput("m", "M"), Add("s", "m", "g"), Const("g", 0), Ret("s")),
        ProgramMeta(phases=("main",) * 4),
    )
    # the reference reads the unwritten register as 0 and signs anyway
    assert execute(prog, {"M": 5}).result.value == 5
    with pytest.raises(ValueError, match="not runnable"):
        FaultRunner(prog, {"M": 5}, 0)
    for _ in range(2):  # a failed construction is not kept
        with pytest.raises(ValueError, match="not runnable"):
            replay_plan(prog, TINY, 5, (FaultAction(WriteOf(1), FaultKind.ZERO),), 42)
    with pytest.raises(ValueError, match="not runnable"):
        run_campaign(CampaignSpec(key=TINY, program=prog, messages=(5,), kinds=("zero",)))


def test_a_program_whose_phases_miss_instructions_is_refused():
    prog = PROGRAMS["straightforward"]
    inputs = program_inputs(prog, TINY, 2)
    for phases in (prog.meta.phases[:-2], prog.meta.phases + ("main",)):
        bad = replace(prog, meta=replace(prog.meta, phases=phases))
        with pytest.raises(ValueError, match="phases for"):
            FaultRunner(bad, inputs, 42)
        with pytest.raises(ValueError, match="phases for"):
            run_campaign(CampaignSpec(key=TINY, program=bad, messages=(2,), kinds=("zero",)))
        with pytest.raises(ValueError, match="phases for"):
            to_infective(bad)


@pytest.fixture
def execute_calls(monkeypatch):
    """Count the reference runs FaultRunner makes for its baselines."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return execute(*args, **kwargs)

    monkeypatch.setattr(crtfi.circuit, "execute", counting)
    return calls


def _first_data_write(prog):
    return next(
        i for i, ins in enumerate(prog.instrs)
        if dst_of(ins) is not None and not isinstance(ins, LoadInput)
    )


def test_replay_plans_share_one_baseline_per_program_inputs_and_seed(execute_calls):
    prog = build("aumuller-infective", TINY, r_bits=5, build_seed=0)  # a fresh memo
    plan = (FaultAction(WriteOf(_first_data_write(prog)), FaultKind.RANDOMIZE, 5),)
    first = replay_plan(prog, TINY, 2, plan, 42)
    for _ in range(4):
        assert replay_plan(prog, TINY, 2, plan, 42) == first
    assert len(execute_calls) == 1
    replay_plan(prog, TINY, 3, plan, 42)
    replay_plan(prog, TINY, 2, plan, 43)
    assert len(execute_calls) == 3


def test_replay_plans_build_the_inputs_once_per_key_message_and_seed(monkeypatch):
    built = []

    def counting(program, key, message):
        built.append((key, message))
        return program_inputs(program, key, message)

    monkeypatch.setattr(crtfi.faultengine, "program_inputs", counting)
    prog = build("aumuller-infective", TINY, r_bits=5, build_seed=0)  # a fresh memo
    plan = (FaultAction(WriteOf(_first_data_write(prog)), FaultKind.RANDOMIZE, 5),)
    for _ in range(4):
        replay_plan(prog, TINY, 2, plan, 42)
    assert built == [(TINY, 2)]
    replay_plan(prog, TINY, 3, plan, 42)
    replay_plan(prog, TINY, 2, plan, 43)
    replay_plan(prog, replace(TINY, d=None), 2, plan, 42)  # an equal key but for d
    assert built == [(TINY, 2), (TINY, 3), (TINY, 2), (replace(TINY, d=None), 2)]


def test_a_different_message_or_seed_gets_a_different_runner():
    prog = build("shamir", TINY, r_bits=5, build_seed=0)
    kept = _runner(prog, TINY, 2, 42)
    assert _runner(prog, replace(TINY), 2, 42) is kept  # an equal key
    assert _runner(prog, TINY, 3, 42) is not kept
    assert _runner(prog, TINY, 2, 43) is not kept
    assert _runner(prog, TINY, 3, 42).signature != kept.signature


def test_the_runner_memo_keeps_a_bounded_number_dropping_the_oldest(execute_calls):
    prog = build("unprotected", TINY, r_bits=5, build_seed=0)
    bound = crtfi.faultengine._RUNNER_MEMO_SIZE
    for seed in range(bound + 5):
        _runner(prog, TINY, 2, seed)
        assert len(prog._runners) <= bound
    assert len(prog._runners) == bound
    assert len(execute_calls) == bound + 5
    for seed in range(5, bound + 5):  # the newest are all kept
        _runner(prog, TINY, 2, seed)
    assert len(execute_calls) == bound + 5
    _runner(prog, TINY, 2, 0)  # the oldest was dropped
    assert len(execute_calls) == bound + 6


def test_plan_persists_builds_each_probe_baseline_once(execute_calls):
    # its four rounds alternate two messages under four seeds
    prog = build("unprotected", TINY, r_bits=5, build_seed=0)  # a fresh memo
    plan = (FaultAction(WriteOf(find_write(prog, "sq")), FaultKind.RANDOMIZE, 0),)
    assert plan_persists(prog, TINY, 2, plan, 42)
    assert len(execute_calls) == 4
    assert plan_persists(prog, TINY, 2, plan, 42)
    assert len(execute_calls) == 4


def test_a_kept_runner_gives_what_a_fresh_one_gives_on_a_whole_plan_list():
    prog = build("vigilant", TINY, r_bits=5, build_seed=0)
    spec = CampaignSpec(
        key=TINY, program=prog, messages=(2,), kinds=("zero", "randomize", "skip"),
        exhaustive_threshold=32, samples_per_site=8, r_bits=5,
    )
    table = site_action_table(prog, spec)
    plans_ = [(FaultAction(t.site, t.kind, v),) for t in table for v in t.values]
    kept = _runner(prog, TINY, 2, 42)
    assert _runner(prog, TINY, 2, 42) is kept
    fresh = FaultRunner(prog, program_inputs(prog, TINY, 2), 42)
    for plan in plans_ + plans_:  # the second pass runs on a kept, used runner
        assert kept.run(plan) == fresh.run(plan), plan


def test_a_baseline_that_is_not_a_signature_is_refused_on_every_call():
    prog = Program(
        "refuses",
        ("M",),
        (LoadInput("m", "M"), Const("z", 0), CheckEq("m", "z"), Ret("m")),
        ProgramMeta(phases=("main",) * 4),
    )
    for _ in range(2):
        with pytest.raises(ValueError, match="fault-free baseline"):
            _runner(prog, TINY, 5, 0)
    assert not prog._runners
