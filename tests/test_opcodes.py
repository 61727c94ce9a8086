"""Every opcode against plain Python arithmetic.

The reference interpreter and the campaign runner share their arithmetic,
so comparing them with each other cannot catch a wrong opcode. Here each
opcode runs in a program that loads its operands and returns its result,
on both paths, against an oracle written with Python's own operators. The
operands reach the instruction once as inputs and once as read faults
replacing benign baseline operands, alone and as the lanes of one batch.
Each opcode's binder is checked against the same oracle bound both ways
the run paths bind it: to positions 0..k-1 of an operand list, and to
scattered (sometimes shared) positions of a longer value list, as
FaultRunner.run binds it to the writers of its operands. Each vector kernel
in the opcode table is checked lane by lane against the scalar rule, with
every mix of scalar and lane operands, and must refuse operands none of
which is a lane list.
"""

import random
from itertools import product

import pytest

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
    ModExp,
    ModInv,
    ModReduce,
    Mul,
    Program,
    ReadOf,
    Ret,
    Signature,
    Sub,
    WriteOf,
    draw_prime_value,
    execute,
)

ARITH = (Add, Sub, Mul, Div)
VALUES = (-7, -1, 0, 1, 2, 5, 12)
MODULI = (-3, 0, 1, 2, 7, 12)
BENIGN = {"a": 3, "b": 3, "m": 7}  # every opcode below runs cleanly on these
PASSED = "passed"  # a check that passed: the program then returns its input a


def _inverse(a, m):
    """The x in [0, m) with a*x = 1 (mod m), by search; None if there is none."""
    return next((x for x in range(m) if a * x % m == 1), None)


def _crash_or(value, m):
    if m is None:
        return Signature(value)
    if m < 2:
        return Crash("bad-modulus")
    return Signature(value % m)


def oracle_binop(cls, a, b, m):
    if cls is Div:
        if b == 0 or a % b:
            return Crash("inexact-division")  # before the modulus is looked at
        return _crash_or(a // b, m)
    return _crash_or({Add: a + b, Sub: a - b, Mul: a * b}[cls], m)


def oracle_reduce(a, m):
    return _crash_or(a, m)


def oracle_exp(a, e, m):
    if m < 2:
        return Crash("bad-modulus")
    if e < 0:
        return Crash("bad-exponent")
    return Signature(a**e % m)


def oracle_inv(a, m):
    if m < 2:
        return Crash("bad-modulus")
    x = _inverse(a, m)
    return Crash("not-invertible") if x is None else Signature(x)


def oracle_check(a, b, m):
    if m is not None and m < 2:
        return Crash("bad-modulus")
    ok = a == b if m is None else (a - b) % m == 0
    return PASSED if ok else ErrorOut(3)


def _program(ins, operands):
    """Load a, b, m; run ins; return its result (or a, after a check)."""
    loads = tuple(LoadInput(r, r) for r in ("a", "b", "m"))
    out = "a" if isinstance(ins, CheckEq) else ins.dst
    return Program("opcode", ("a", "b", "m"), loads + (ins, Ret(out)))


def _cases():
    for cls, a, b in product(ARITH, VALUES, VALUES):
        yield cls("x", "a", "b"), (a, b), oracle_binop(cls, a, b, None)
        for m in MODULI:
            yield cls("x", "a", "b", "m"), (a, b, m), oracle_binop(cls, a, b, m)
    for a, m in product(VALUES, MODULI):
        yield ModReduce("x", "a", "m"), (a, m), oracle_reduce(a, m)
        yield ModInv("x", "a", "m"), (a, m), oracle_inv(a, m)
    # units of both moduli, so that lane lists of them have every inverse
    for a, m in product((-7, 1, 5, 11), (6, 12)):
        yield ModInv("u", "a", "m"), (a, m), oracle_inv(a, m)
    for a, e, m in product(VALUES, VALUES, MODULI):
        yield ModExp("x", "a", "b", "m"), (a, e, m), oracle_exp(a, e, m)
    for a, b in product(VALUES, VALUES):
        yield CheckEq("a", "b"), (a, b), oracle_check(a, b, None)
        for m in MODULI:
            yield CheckEq("a", "b", "m"), (a, b, m), oracle_check(a, b, m)


def _name(cls):
    """An opcode's test id: its class name, or for the arithmetic its
    keyword after BinOp, the id it had when one class held all four."""
    return "BinOp" + OPCODES[cls].keyword if cls in ARITH else cls.__name__


CASES = list(_cases())
OPCODES_UNDER_TEST = sorted({_name(type(ins)) for ins, _x, _r in CASES})


def _operands(ins):
    """The registers ins reads, in slot order."""
    fields = ("a", "b", "src", "base", "exp", "mod")
    return [r for r in (getattr(ins, f, None) for f in fields) if r is not None]


def _inputs(ins, operands):
    return {**BENIGN, **dict(zip(_operands(ins), operands))}


def _bind(ins, pos, i):
    """ins, at index i, bound to operand positions pos by its opcode's binder."""
    return OPCODES[type(ins)].bind(ins, pos, i)


def _scalar(ins, operands, env, i=3):
    """ins's scalar rule, at index i, bound to positions 0..k-1 and run on operands."""
    return _bind(ins, tuple(range(len(operands))), i)(list(operands), env)


def _as_result(got, want):
    """A closure's return read as the oracle writes it: a stored value as
    its Signature, a check that passed as PASSED, an ErrorOut as the
    oracle's ErrorOut(3) when want is one."""
    if got is None:
        return PASSED
    if isinstance(got, int):
        return Signature(got)
    return ErrorOut(3) if isinstance(got, ErrorOut) and isinstance(want, ErrorOut) else got


def _scattered(operands, rng, share):
    """A value list of junk with operands at scattered positions, and those
    positions; with share, operands of equal value share one position, as
    two slots reading one register share its writer."""
    size = 3 * len(operands) + rng.randrange(1, 6)
    values = [rng.randrange(-(10**9), 10**9) for _ in range(size)]
    free = rng.sample(range(size), len(operands))
    pos, first = [], {}
    for v, p in zip(operands, free):
        p = first.setdefault(v, p) if share else p
        values[p] = v
        pos.append(p)
    return values, tuple(pos)


@pytest.mark.parametrize("opcode", OPCODES_UNDER_TEST)
def test_each_opcode_matches_python_on_both_paths(opcode):
    runners = {}
    checked = 0
    for ins, operands, want in CASES:
        if _name(type(ins)) != opcode:
            continue
        prog = _program(ins, operands)
        inputs = _inputs(ins, operands)
        got = execute(prog, inputs).result
        assert got == (Signature(inputs["a"]) if want == PASSED else want), (ins, operands)
        # the same operands as read faults over a clean baseline
        if want == PASSED:
            want = Signature(BENIGN["a"])
        plan = tuple(
            FaultAction(ReadOf(3, slot), FaultKind.RANDOMIZE, v) for slot, v in enumerate(operands)
        )
        assert execute(prog, BENIGN, plan=plan).result == want, (ins, operands)
        runner = runners.get(ins)
        if runner is None:
            runner = runners[ins] = FaultRunner(prog, BENIGN, 0)
        assert runner.run(plan) == want, (ins, operands)
        checked += 1
    assert checked >= len(VALUES) * len(MODULI)
    # each operand's values as the lanes of one read site, the others benign
    for ins, runner in runners.items():
        for slot in range(len(_operands(ins))):
            values = sorted({ops[slot] for i, ops, _w in CASES if i == ins})
            plans = [(FaultAction(ReadOf(3, slot), FaultKind.RANDOMIZE, v),) for v in values]
            lanes = {3: [(k, slot, v) for k, v in enumerate(values)]}
            got = runner.run_batch(len(values), {}, lanes, {})
            assert got == [runner.run(p) for p in plans], ins


def _uncommon(ins, xs):
    """Operands a vector kernel may hand back to the lanes one by one: some
    lane's modulus below 2, some lane's exponent negative or some lane's
    value without an inverse."""

    def least(x):
        return min(x) if isinstance(x, list) else x

    mod = OPCODES[type(ins)].reads.index("mod") if ins.mod else None
    exp = xs[1] if isinstance(ins, ModExp) else 0
    if isinstance(ins, ModInv):
        width = max(len(x) for x in xs if isinstance(x, list))
        lanes = [[x[k] if isinstance(x, list) else x for x in xs] for k in range(width)]
        if any(_inverse(a, m) is None for a, m in lanes if m >= 2):
            return True
    return (mod and least(xs[mod]) < 2) or least(exp) < 0


# every opcode with a vector kernel, by the table; Ret, which the programs
# above end with, has cases here only
VECTORS = sorted(_name(cls) for cls, row in OPCODES.items() if row.vector)
LANE_CASES = CASES + [(Ret("a"), (a,), Signature(a)) for a in VALUES]


@pytest.mark.parametrize("opcode", VECTORS)
def test_each_vector_kernel_matches_its_kernel_lane_by_lane(opcode):
    env = (BENIGN, 0)
    rows_of = {}
    for ins, operands, _want in LANE_CASES:
        if _name(type(ins)) == opcode:
            rows_of.setdefault(ins, []).append(operands)
    checked = 0
    for ins, rows in rows_of.items():
        vector = OPCODES[type(ins)].vector
        width = len(rows[0])
        # the operands at positions `fixed` are scalars, the others lane lists
        for fixed in product((False, True), repeat=width):
            if all(fixed):
                continue
            groups = {}
            for r in rows:
                groups.setdefault(tuple(v for v, f in zip(r, fixed) if f), []).append(r)
            for lanes in groups.values():
                xs = [lanes[0][q] if fixed[q] else [r[q] for r in lanes] for q in range(width)]
                got = vector(xs, 3)
                if got is None:
                    assert _uncommon(ins, xs), (ins, xs)
                    continue
                assert got == [_scalar(ins, r, env) for r in lanes], (ins, xs)
                checked += 1
    assert checked


@pytest.mark.parametrize("opcode", VECTORS)
def test_each_vector_kernel_refuses_operands_with_no_lane_list(opcode):
    checked = 0
    for ins, operands, _want in LANE_CASES:
        if _name(type(ins)) == opcode:
            with pytest.raises(ValueError):
                OPCODES[type(ins)].vector(list(operands), 3)
            checked += 1
    assert checked


@pytest.mark.parametrize(
    "ins, operands",
    [
        (Div("x", "a", "b", "m"), (5, 0, 1)),  # inexact-division before bad-modulus
        (ModExp("x", "a", "b", "m"), (2, -1, 1)),  # bad-modulus before bad-exponent
        (ModInv("x", "a", "m"), (0, 1)),  # bad-modulus before not-invertible
    ],
)
def test_lanes_keep_the_crash_precedence_of_the_kernel(ins, operands):
    vector = OPCODES[type(ins)].vector
    want = _scalar(ins, operands, (BENIGN, 0))
    assert isinstance(want, Crash)
    for p in range(len(operands)):  # each operand once as the lane list
        xs = [[v, v] if q == p else v for q, v in enumerate(operands)]
        # no vector kernel for this case: the lanes run the scalar rule one by one
        assert vector is None or vector(xs, 3) is None


@pytest.mark.parametrize(
    "ins, operands, reason",
    [
        (Div("x", "a", "b", "m"), (5, 0, 1), "inexact-division"),
        (Div("x", "a", "b", "m"), (5, 2, 0), "inexact-division"),
        (Div("x", "a", "b", "m"), (6, 2, 1), "bad-modulus"),
        (ModExp("x", "a", "b", "m"), (2, -1, 1), "bad-modulus"),
        (ModExp("x", "a", "b", "m"), (2, -1, 7), "bad-exponent"),
        (ModInv("x", "a", "m"), (0, 1), "bad-modulus"),
        (ModInv("x", "a", "m"), (6, 12), "not-invertible"),
        (ModReduce("x", "a", "m"), (6, -3), "bad-modulus"),
        (CheckEq("a", "b", "m"), (1, 2, 0), "bad-modulus"),
    ],
)
def test_crash_reasons_and_their_precedence(ins, operands, reason):
    prog = _program(ins, operands)
    plan = tuple(
        FaultAction(ReadOf(3, slot), FaultKind.RANDOMIZE, v) for slot, v in enumerate(operands)
    )
    assert execute(prog, _inputs(ins, operands)).result == Crash(reason)
    assert FaultRunner(prog, BENIGN, 0).run(plan) == Crash(reason)
    # the binder itself, bound both ways the run paths bind it
    assert _scalar(ins, operands, (BENIGN, 0)) == Crash(reason)
    rng = random.Random(reason)
    for share in (False, True):
        values, pos = _scattered(operands, rng, share)
        assert _bind(ins, pos, 9)(values, (BENIGN, 0)) == Crash(reason), pos


@pytest.mark.parametrize("opcode", OPCODES_UNDER_TEST + ["Ret"])
def test_each_binder_matches_python_at_any_positions(opcode):
    rng = random.Random(opcode)
    env = (BENIGN, 0)
    checked = 0
    for ins, operands, want in LANE_CASES:
        if _name(type(ins)) != opcode:
            continue
        # positions 0..k-1 of an operand list, as execute and run_batch bind it
        assert _as_result(_scalar(ins, operands, env), want) == want, (ins, operands)
        for share in (False, True):
            values, pos = _scattered(operands, rng, share)
            i = rng.randrange(100)
            before = values.copy()
            got = _bind(ins, pos, i)(values, env)
            assert values == before, (ins, pos)
            if isinstance(want, ErrorOut):
                assert got == ErrorOut(i), (ins, operands, pos)
            assert _as_result(got, want) == want, (ins, operands, pos)
        checked += 1
    assert checked >= len(VALUES)


def test_source_binders_read_the_inputs_the_immediate_and_the_avoid_set():
    env = ({"a": 5, "b": 8}, 42)
    assert _bind(LoadInput("x", "b"), (), 4)([], env) == 8
    assert _bind(Const("c", 12), (), 4)([], env) == 12
    draw = DrawRandomPrime("r", 5, ("p", "q"))
    free = draw_prime_value(42, 7, 5, set())  # the prime drawn with nothing to avoid
    values = [0, 1, 0, 0, free, 0]
    moved = draw_prime_value(42, 7, 5, {1, free})
    assert moved != free
    for pos in ((1, 4), (4, 1), (4, 4)):  # the avoided prime at either slot
        assert _bind(draw, pos, 7)(values, env) == moved, pos
        assert _scalar(draw, [values[p] for p in pos], env, i=7) == moved, pos
    assert _bind(draw, (0, 1), 7)(values, env) == free


def test_sources_store_their_values():
    prog = Program(
        "sources",
        ("a",),
        (LoadInput("x", "a"), Const("c", 12), Add("s", "x", "c"), Ret("s")),
    )
    assert execute(prog, {"a": 5}).result == Signature(17)
    plan = (FaultAction(WriteOf(0), FaultKind.RANDOMIZE, 30),)
    assert execute(prog, {"a": 5}, plan=plan).result == Signature(42)
    assert FaultRunner(prog, {"a": 5}, 0).run(plan) == Signature(42)


def test_a_draw_is_a_prime_of_its_width_outside_its_avoid_set():
    # the 3-bit primes are 5 and 7, so avoiding one leaves the other
    prog = Program(
        "draw",
        ("a",),
        (LoadInput("x", "a"), DrawRandomPrime("r", 3, ("x",)), Ret("r")),
    )
    for seed in range(8):
        assert execute(prog, {"a": 5}, seed=seed).result == Signature(7)
        assert execute(prog, {"a": 7}, seed=seed).result == Signature(5)
        plan = (FaultAction(WriteOf(0), FaultKind.RANDOMIZE, 7),)
        assert FaultRunner(prog, {"a": 5}, seed).run(plan) == Signature(5)
        # the avoid lookup is no operand read: a read fault there changes nothing
        plan = (FaultAction(ReadOf(1, 0), FaultKind.RANDOMIZE, 7),)
        assert execute(prog, {"a": 5}, seed=seed, plan=plan).result == Signature(7)
        assert FaultRunner(prog, {"a": 5}, seed).run(plan) == Signature(7)
