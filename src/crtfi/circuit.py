"""Straight-line programs over modular arithmetic, and their faulted execution.

A Program is a fixed list of instructions over named write-once registers:
no branches, no loops. Conditionals exist only as CheckEq, which aborts the
run with the error constant when its comparison fails. This shape makes every
fault site enumerable:

  * WriteOf(i)      - permanent: the value stored by instruction i is replaced
                      for the rest of the run.
  * ReadOf(i, slot) - transient: one operand fetch of instruction i sees the
                      replacement; the register itself is untouched.
  * SkipRange(a, b) - instructions wholly inside [a, b] are not executed.

Fault kinds are Zero (replacement 0), Randomize (attacker-chosen replacement),
and Skip. A skipped instruction leaves a deterministic pseudo-random fill in
its destination register - the memory content an attacker would find after the
store never happened. A skipped CheckEq counts as passed. A skipped Return
releases the zero-initialized output buffer.

The three sites and FaultAction are slotted frozen dataclasses, with no
per-instance dict: a replay grid holds some 10^5 of them. A FaultAction
carries a value for Randomize only. plan_faults decodes a plan and refuses
a site it names twice as it decodes, hashing no site.

Raw inputs (loaded by LoadInput) can be faulted transiently at each read but
have no WriteOf site. Random draws are per-instruction-site seeded streams, so
a plan never shifts the draws of untouched sites and faulted runs share their
r values with the fault-free baseline.

Each instruction class is one opcode, described once, in the OPCODES
table: its dump keyword, its immediate fields, its register operands in
slot order, the field naming the modulus it reduces by, one scalar rule,
and for add, sub, mul, the reductions, checks and Return a vector kernel
computing it for many lanes at once. The scalar rule is a binder: given
the positions of the instruction's operands in a value list, it returns
one closure that computes the instruction from that list. execute and run_batch's per-lane
fallback bind it to an operand list (positions 0..k-1), FaultRunner.run to
the writers' indices in its list of stored values, so one binder per
opcode serves all three. Operand reads, moduli, dumps, parsing, register
renaming and every run path are derived from that table.

Programs run on three paths that give the same results:

  * execute() is the reference interpreter. It runs every instruction and
    records the trace and draws. It serves fault-free baselines, the `sign`
    command, skip-fault subsumption, ExecOutcome.regs(), and the tests that
    check the other paths against it.
  * FaultRunner.run runs one faulted plan, decoded as plan_faults decodes
    it, for faultengine.replay_plan and plan_persists. It re-evaluates
    only the instructions the plan changes, each in one call of its
    closure bound once per program (CompiledProgram.bound), except the
    indices the plan itself faults or skips. A plan that faults two or
    more indices resumes at its second faulted index i2 from a record of
    what the faults at its first index i1 do alone, kept per runner under
    i1, its write and read replacements and whether i1 is skipped (at
    most _WALK_MEMO_SIZE records, the oldest dropped first). A record is
    complete below its horizon, and a plan whose i2 lies past it walks
    the missing part and extends it. If the first fault's walk ends below
    i2, so does the plan (the End rule); if it is absorbed below i2,
    nothing of it is pending at i2 (the Absorption rule). The erase-the-
    check grids pair each first fault with every verification erasure,
    so their plans of one first fault run in a row.
  * FaultRunner.run_batch runs a batch of faulted plans, one lane per plan,
    for campaigns (faultengine.run_campaign) and their replay probes, by
    run's rule: the plans may fault different sites, and an instruction is
    evaluated, once for all lanes and through the vector kernels, when some
    lane faults it or some lane changed a value it reads.

Both runners start from a baseline execute() run and use the program's
compiled form (Program.compiled, built once per Program). Each Program
holds a dict, _runners, in which faultengine keeps the runners it builds,
so a baseline runs once per (program, key, message, seed).

Every program is written through ProgramBuilder: the catalog builders of
countermeasures and the rewrites of transforms alike. Its factor method
emits an infection factor c = (a - b + 1) mod m and records it, infect
emits the product/power infection chain and its Return, and build derives
verification_checks from the stream's CheckEq positions, however they
were emitted.
"""

from __future__ import annotations

import functools
import hashlib
import random
from dataclasses import astuple, dataclass, field, replace
from enum import Enum
from itertools import repeat
from operator import add, eq, mod, mul, sub
from typing import Callable, get_type_hints

from .modmath import is_prime


# ---------------------------------------------------------------- instructions


@dataclass(frozen=True)
class LoadInput:
    dst: str
    name: str


@dataclass(frozen=True)
class DrawRandomPrime:
    """Draw a random prime of the given bit width into dst.

    distinct_from lists register names whose current values the draw must
    avoid (coprimality constraints between overring factors). The constraint
    lookups are not operand reads and carry no fault sites.
    """

    dst: str
    bits: int
    distinct_from: tuple[str, ...] = ()


@dataclass(frozen=True)
class Const:
    dst: str
    value: int


@dataclass(frozen=True)
class _BinOp:
    """dst <- a op b, optionally reduced mod the value of register mod.

    Each subclass is one op, with its own OPCODES row.
    """

    dst: str
    a: str
    b: str
    mod: str | None = None


class Add(_BinOp):
    """dst <- a + b."""


class Sub(_BinOp):
    """dst <- a - b, which may go negative without a modulus."""


class Mul(_BinOp):
    """dst <- a * b."""


class Div(_BinOp):
    """dst <- a / b, exactly: a nonzero remainder or a zero divisor crashes the run."""


@dataclass(frozen=True)
class ModReduce:
    dst: str
    src: str
    mod: str


@dataclass(frozen=True)
class ModExp:
    dst: str
    base: str
    exp: str
    mod: str


@dataclass(frozen=True)
class ModInv:
    dst: str
    src: str
    mod: str


@dataclass(frozen=True)
class CheckEq:
    """Abort with the error constant unless a == b (mod m when given)."""

    a: str
    b: str
    mod: str | None = None


@dataclass(frozen=True)
class Ret:
    src: str


Instr = (
    LoadInput | DrawRandomPrime | Const | Add | Sub | Mul | Div
    | ModReduce | ModExp | ModInv | CheckEq | Ret
)


# --------------------------------------------------------------------- results


@dataclass(frozen=True)
class Signature:
    value: int


@dataclass(frozen=True)
class ErrorOut:
    """The error constant was released; check_index is diagnostic only."""

    check_index: int


@dataclass(frozen=True)
class Crash:
    reason: str  # bad-modulus | not-invertible | inexact-division | bad-exponent


ExecResult = Signature | ErrorOut | Crash

_ENDS = (Signature, ErrorOut, Crash)
_BAD_MODULUS = Crash("bad-modulus")
_BAD_EXPONENT = Crash("bad-exponent")
_INEXACT_DIVISION = Crash("inexact-division")
_NOT_INVERTIBLE = Crash("not-invertible")


# ---------------------------------------------------------------- opcode table

# A binder compiles one instruction's scalar rule once: bind(ins, pos, index)
# gets the positions in a value list of the instruction's operands (its read
# slots in slot order, then its lookups) and returns f(values, (inputs, seed)),
# which reads those operands from values and returns the value to store, None
# for a check that passed, or the ExecResult that ends the run. execute and
# run_batch's per-lane fallback bind to positions 0..k-1 of an operand list
# (with any read faults already applied); FaultRunner.run binds to the
# writers' indices of a list of stored values. A modulus below 2 crashes the
# run before a negative exponent or a missing inverse; div checks exactness
# before it reads the modulus.


def _b_input(ins, pos, i):
    name = ins.name
    return lambda v, env: env[0][name]  # KeyError = caller bug, not a fault


def _b_draw(ins, pos, i):
    bits = ins.bits
    return lambda v, env: draw_prime_value(env[1], i, bits, {v[p] for p in pos})


def _b_const(ins, pos, i):
    value = ins.value
    return lambda v, env: value


def _arith_binder(op: Callable[[int, int], int]) -> Callable:
    """The binder of a op b, reduced mod the third operand if any."""

    def bind(ins, pos, i):
        if len(pos) == 2:
            a, b = pos
            return lambda v, env: op(v[a], v[b])
        a, b, m = pos

        def f(v, env):
            mv = v[m]
            return op(v[a], v[b]) % mv if mv >= 2 else _BAD_MODULUS

        return f

    return bind


def _b_div(ins, pos, i):
    a, b, *m = pos

    def f(v, env):
        x, y = v[a], v[b]
        if y == 0 or x % y:  # exact or crash, before the modulus is read
            return _INEXACT_DIVISION
        if not m:
            return x // y
        mv = v[m[0]]
        return x // y % mv if mv >= 2 else _BAD_MODULUS

    return f


def _b_reduce(ins, pos, i):
    a, m = pos

    def f(v, env):
        mv = v[m]
        return v[a] % mv if mv >= 2 else _BAD_MODULUS

    return f


def _b_exp(ins, pos, i):
    a, e, m = pos

    def f(v, env):
        mv, ev = v[m], v[e]
        if mv < 2:
            return _BAD_MODULUS
        if ev < 0:
            return _BAD_EXPONENT
        return pow(v[a], ev, mv)

    return f


def _b_inv(ins, pos, i):
    a, m = pos

    def f(v, env):
        mv = v[m]
        if mv < 2:
            return _BAD_MODULUS
        try:
            return pow(v[a], -1, mv)
        except ValueError:
            return _NOT_INVERTIBLE

    return f


def _b_check(ins, pos, i):
    fail = ErrorOut(i)
    if len(pos) == 2:
        a, b = pos
        return lambda v, env: None if v[a] == v[b] else fail
    a, b, m = pos

    def f(v, env):
        mv = v[m]
        if mv < 2:
            return _BAD_MODULUS
        return None if (v[a] - v[b]) % mv == 0 else fail

    return f


def _b_ret(ins, pos, i):
    (s,) = pos
    return lambda v, env: Signature(v[s])


# A vector kernel computes one instruction for many lanes at once:
# vector(xs, index) gets operands that are each a scalar (a value every lane
# shares) or a lane list, at least one a list (ValueError if none is: the
# lane count is the lists' length), and the instruction's index (a failed
# check's ErrorOut carries it), and returns the lane list of what the scalar
# rule returns per lane. It returns None where that is not the common
# case (a modulus below 2, a negative exponent, a value with no inverse); the
# caller then runs the binder's closure once per lane, so crash reasons and
# their precedence are the scalar rule's.


def _lanes(xs) -> list:
    """xs as lane columns, each scalar repeated to the lists' length."""
    n = max(len(x) for x in xs if x.__class__ is list)
    return [repeat(x, n) if x.__class__ is int else x for x in xs]


def _moduli_ok(m) -> bool:
    """Whether every lane's modulus is at least 2."""
    return (m if m.__class__ is int else min(m)) >= 2


def _arith_vector(op: Callable[[int, int], int]) -> Callable:
    """The vector kernel of a op b, reduced mod the third operand if any."""

    def vector(xs, i):
        cols = _lanes(xs)
        if len(xs) == 2:
            return list(map(op, *cols))
        return list(map(mod, map(op, cols[0], cols[1]), cols[2])) if _moduli_ok(xs[2]) else None

    return vector


def _v_reduce(xs, i):
    cols = _lanes(xs)
    return list(map(mod, *cols)) if _moduli_ok(xs[1]) else None


def _v_exp(xs, i):
    cols = _lanes(xs)
    exp = xs[1]
    # pow takes a negative exponent as an inverse power; the scalar rule crashes there
    if not _moduli_ok(xs[2]) or (exp if exp.__class__ is int else min(exp)) < 0:
        return None
    return list(map(pow, *cols))


def _v_inv(xs, i):
    a, m = _lanes(xs)
    if not _moduli_ok(xs[1]):
        return None
    try:
        return list(map(pow, a, repeat(-1), m))
    except ValueError:  # some lane is not invertible
        return None


def _v_check(xs, i):
    cols = _lanes(xs)
    fail = ErrorOut(i)
    if len(xs) == 2:
        return [None if ok else fail for ok in map(eq, *cols)]
    if not _moduli_ok(xs[2]):
        return None
    return [fail if r else None for r in map(mod, map(sub, cols[0], cols[1]), cols[2])]


def _v_ret(xs, i):
    (src,) = [x for x in xs if x.__class__ is list]
    return list(map(Signature, src))


@dataclass(frozen=True)
class Opcode:
    """Everything the rest of the system knows about one instruction class.

    keyword is the dump keyword. immediates are the non-register fields
    printed after the keyword, with their types. bind is the one scalar
    rule, as a binder (see above): execute, FaultRunner.run and run_batch's
    per-lane fallback all evaluate the closures it returns.
    reads are the register operand fields in slot order; a trailing mod that
    is None has no slot. reduces_by names the field holding the modulus the
    stored value is reduced by; CheckEq's mod is a comparison ring, not
    that. lookups names a field of registers the binder also sees, after the
    operands, without fault sites (the avoid set of a draw); validate wants
    each written before it is looked up, as an operand is, and execute
    reads an unwritten one as 0. vector is the vector kernel (see above);
    None means the lanes run the scalar rule one by one.
    """

    keyword: str
    immediates: tuple[tuple[str, type], ...]
    reads: tuple[str, ...]
    reduces_by: str | None
    bind: Callable[[Instr, tuple[int, ...], int], Callable]
    lookups: str | None = None
    vector: Callable[[list, int], list | None] | None = None

    @property
    def printed(self) -> tuple[str, ...]:
        """Fields in dump order after the keyword."""
        tail = (self.lookups,) if self.lookups else ()
        return tuple(f for f, _t in self.immediates) + self.reads + tail


OPCODES: dict[type, Opcode] = {
    LoadInput: Opcode("input", (("name", str),), (), None, _b_input),
    DrawRandomPrime: Opcode("randprime", (("bits", int),), (), None, _b_draw, "distinct_from"),
    Const: Opcode("const", (("value", int),), (), None, _b_const),
    Add: Opcode("add", (), ("a", "b", "mod"), "mod", _arith_binder(add), vector=_arith_vector(add)),
    Sub: Opcode("sub", (), ("a", "b", "mod"), "mod", _arith_binder(sub), vector=_arith_vector(sub)),
    Mul: Opcode("mul", (), ("a", "b", "mod"), "mod", _arith_binder(mul), vector=_arith_vector(mul)),
    Div: Opcode("div", (), ("a", "b", "mod"), "mod", _b_div),
    ModReduce: Opcode("reduce", (), ("src", "mod"), "mod", _b_reduce, vector=_v_reduce),
    ModExp: Opcode("modexp", (), ("base", "exp", "mod"), "mod", _b_exp, vector=_v_exp),
    ModInv: Opcode("modinv", (), ("src", "mod"), "mod", _b_inv, vector=_v_inv),
    CheckEq: Opcode("checkeq", (), ("a", "b", "mod"), None, _b_check, vector=_v_check),
    Ret: Opcode("return", (), ("src",), None, _b_ret, vector=_v_ret),
}

# fields a dump prints after a tag word, and leaves out when unset
_TAGS = {"mod": "mod", "distinct_from": "avoid"}

_BY_KEYWORD = {row.keyword: cls for cls, row in OPCODES.items()}


def dst_of(ins: Instr) -> str | None:
    return getattr(ins, "dst", None)


def _operand_regs(ins: Instr) -> tuple[tuple[str, ...], int]:
    """Registers whose values ins's binder reads, and how many are read slots."""
    row = OPCODES[type(ins)]
    regs = tuple(r for r in (getattr(ins, f) for f in row.reads) if r is not None)
    if row.lookups:
        return regs + getattr(ins, row.lookups), len(regs)
    return regs, len(regs)


def reads_of(ins: Instr) -> tuple[tuple[int, str], ...]:
    """Operand fetches of an instruction as (slot, register) pairs."""
    regs, slots = _operand_regs(ins)
    return tuple(enumerate(regs[:slots]))


def modulus_reg(ins: Instr) -> str | None:
    """The register an instruction reduces by, if any."""
    f = OPCODES[type(ins)].reduces_by
    return None if f is None else getattr(ins, f)


def registers_of(ins: Instr) -> tuple[str | None, ...]:
    """Every register ins names: destination, operand fields, lookups.

    An absent destination or mod is None, so two instructions of one class
    give tuples that line up field by field.
    """
    row = OPCODES[type(ins)]
    regs = (dst_of(ins),) + tuple(getattr(ins, f) for f in row.reads)
    return regs + getattr(ins, row.lookups) if row.lookups else regs


def rename_registers(ins: Instr, ren: dict[str, str]) -> Instr:
    """ins with every register it names mapped through ren (others kept)."""
    row = OPCODES[type(ins)]
    changes = {
        f: ren.get(r, r) for f in ("dst", *row.reads) if (r := getattr(ins, f, None)) is not None
    }
    if row.lookups:
        changes[row.lookups] = tuple(ren.get(r, r) for r in getattr(ins, row.lookups))
    return replace(ins, **changes)


# ------------------------------------------------------------------- metadata


@dataclass(frozen=True)
class InfectionFactor:
    """One multiplicative verification factor c = (a - b + 1) mod m.

    diff_idx is the subtraction writing (a - b) mod m, c_idx the final add.
    group ties replicated copies of the same logical invariant together.
    """

    c_reg: str
    a_reg: str
    b_reg: str
    mod_reg: str | None
    diff_idx: int
    c_idx: int
    group: int


@dataclass(frozen=True)
class ProgramMeta:
    """Structural annotations the transforms and the report writer rely on."""

    phases: tuple[str, ...] = ()  # one tag per instruction
    verification_checks: tuple[int, ...] = ()  # CheckEq indices
    factors: tuple[InfectionFactor, ...] = ()
    infection_indices: tuple[int, ...] = ()  # product chain + final ModExp
    output_tail: tuple[int, ...] = ()  # result retrieval, not faultable as data
    # the checksum ring's collision rate (1: ~1/r, 2: ~1/r^2, 0: no ring), read
    # by dumps only: faultengine._classify bounds both powers by 2/r_min
    checksum_power: int = 0
    r_regs: tuple[str, ...] = ()  # registers holding the small checksum moduli
    n_reg: str | None = None  # register holding p*q when the program computes it
    one_reg: str | None = None


# ProgramMeta in dump comment lines "# <tag> <words>", in dump order:
# (tag, field, item type). A tuple field is one line of items and a scalar
# one line of one item; factor is the one field whose items are records,
# one line each. Unset fields (empty, 0, None) are not printed.
_META_LINES = (
    ("phases", "phases", str),
    ("checks", "verification_checks", int),
    ("factor", "factors", InfectionFactor),
    ("infection", "infection_indices", int),
    ("tail", "output_tail", int),
    ("checksum-power", "checksum_power", int),
    ("rregs", "r_regs", str),
    ("nreg", "n_reg", str),
    ("onereg", "one_reg", str),
)
_META_BY_TAG = {tag: (f, item) for tag, f, item in _META_LINES}
_NO_META = ProgramMeta()
_FACTOR_TYPES = tuple(get_type_hints(InfectionFactor).values())


def _meta_value(typ: object, word: str) -> object:
    """A record word read back as typ: int, str, or str | None ("-")."""
    if typ is int:
        return int(word)
    return None if word == "-" and typ is not str else word


@dataclass(frozen=True)
class Program:
    name: str
    inputs: tuple[str, ...]
    instrs: tuple[Instr, ...]
    meta: ProgramMeta = field(default_factory=ProgramMeta)

    @functools.cached_property
    def steps(self) -> tuple[tuple[Instr, Callable, tuple[str, ...], int, str | None], ...]:
        """(instruction, scalar rule bound to operand positions 0..k-1,
        its k operand registers, read slots, destination) per instruction.

        Built on first use from OPCODES without validating, so execute runs
        malformed programs too.
        """
        steps = []
        for i, ins in enumerate(self.instrs):
            regs, slots = _operand_regs(ins)
            rule = OPCODES[type(ins)].bind(ins, tuple(range(len(regs))), i)
            steps.append((ins, rule, regs, slots, dst_of(ins)))
        return tuple(steps)

    @functools.cached_property
    def compiled(self) -> CompiledProgram:
        """The FaultRunner form of this program, built on first use."""
        return _compile(self)

    @functools.cached_property
    def _runners(self) -> dict[tuple, FaultRunner]:
        return {}


# ------------------------------------------------------------------ validation


@dataclass(frozen=True)
class Defect:
    kind: str
    index: int
    detail: str
    severity: str  # "error" | "warning"


def validate(program: Program) -> list[Defect]:
    """Static well-formedness check; errors make a program unrunnable."""
    defects: list[Defect] = []
    written: dict[str, int] = {}
    read_regs: set[str] = set()
    ret_seen = False
    for idx, ins in enumerate(program.instrs):
        if ret_seen:
            defects.append(Defect("misplaced-return", idx, "instruction after Return", "error"))
        if isinstance(ins, LoadInput) and ins.name not in program.inputs:
            defects.append(Defect("bad-input", idx, f"{ins.name!r} not declared", "error"))
        if isinstance(ins, DrawRandomPrime) and ins.bits < 2:
            defects.append(Defect("bad-width", idx, "draw width must be >= 2 bits", "error"))
        regs, slots = _operand_regs(ins)
        read_regs.update(regs[:slots])
        for k, reg in enumerate(regs):
            if reg not in written:
                use = "read" if k < slots else "avoided"
                defects.append(
                    Defect("def-before-use", idx, f"{reg!r} {use} before any write", "error")
                )
        dst = dst_of(ins)
        if dst is not None:
            if dst in written:
                defects.append(
                    Defect("rewrite", idx, f"{dst!r} already written at {written[dst]}", "error")
                )
            written[dst] = idx
        if isinstance(ins, Ret):
            ret_seen = True
    if not ret_seen:
        defects.append(Defect("missing-return", len(program.instrs), "no Return", "error"))
    if program.meta.phases and len(program.meta.phases) != len(program.instrs):
        detail = f"{len(program.meta.phases)} phases for {len(program.instrs)} instructions"
        defects.append(Defect("bad-phases", len(program.instrs), detail, "error"))
    for reg, idx in written.items():
        if reg not in read_regs:
            defects.append(Defect("dead-store", idx, f"{reg!r} is never read", "warning"))
    return defects


def is_well_formed(program: Program) -> bool:
    return not any(d.severity == "error" for d in validate(program))


class BuildError(ValueError):
    """A program fails validation, so it cannot run."""


def check_runnable(program: Program) -> None:
    """Raise BuildError naming every error validate finds in program."""
    errors = [d.detail for d in validate(program) if d.severity == "error"]
    if errors:
        raise BuildError(f"{program.name} is not runnable: " + "; ".join(errors))


# ---------------------------------------------------------------- fault model


class FaultKind(Enum):
    ZERO = "zero"
    RANDOMIZE = "randomize"
    SKIP = "skip"


# module globals: the enum class lookup costs ~10x
_RANDOMIZE = FaultKind.RANDOMIZE
_SKIP = FaultKind.SKIP


@dataclass(frozen=True, order=True, slots=True)
class WriteOf:
    index: int

    def key(self, program: Program) -> str:
        return f"W{self.index}:{dst_of(program.instrs[self.index])}"


@dataclass(frozen=True, order=True, slots=True)
class ReadOf:
    index: int
    slot: int

    def key(self, program: Program) -> str:
        reg = dict(reads_of(program.instrs[self.index]))[self.slot]
        return f"R{self.index}.{self.slot}:{reg}"


@dataclass(frozen=True, order=True, slots=True)
class SkipRange:
    first: int
    last: int

    def key(self, program: Program) -> str:
        return f"K{self.first}-{self.last}"


FaultSite = WriteOf | ReadOf | SkipRange


@dataclass(frozen=True, slots=True)
class FaultAction:
    """One injection: a site, a kind, and the replacement value, which
    Randomize needs and Zero and Skip refuse."""

    site: FaultSite
    kind: FaultKind
    value: int | None = None

    def __post_init__(self):
        kind = self.kind
        if kind is _RANDOMIZE:
            if self.value is None:
                raise ValueError("Randomize needs a replacement value")
        elif self.value is not None:
            raise ValueError(f"{kind.name.capitalize()} takes no replacement value")
        window = self.site.__class__ is SkipRange
        if kind is _SKIP and not window:
            raise ValueError("Skip applies to SkipRange sites only")
        if kind is not _SKIP and window:
            raise ValueError("SkipRange sites take Skip faults only")


FaultPlan = tuple[FaultAction, ...]
# a plan as plan_faults decodes it: writes, reads, skipped, pending; skipped
# holds instruction i as bit i, pending as bit n-1-i like CompiledProgram.readers
DecodedPlan = tuple[dict[int, int], dict[int, dict[int, int]], int, int]


def enumerate_sites(program: Program, max_skip_len: int = 0) -> list[FaultSite]:
    """All fault sites of a program, in deterministic order.

    WriteOf for every destination except raw input loads; ReadOf for every
    operand slot; SkipRange for every window of 1..max_skip_len instructions
    that stays clear of the input loads. A window over a load would corrupt
    an input identically for every later use, computation and verification
    alike; that is a wrong-input run, not a fault on the computation, so
    those windows are not part of the attack surface (inputs are faultable
    per read instead). The Return operand read and the data sites of
    instructions tagged output_tail model the released result rather than
    an intermediate value and are excluded.
    """
    tail = set(program.meta.output_tail)
    sites: list[FaultSite] = []
    for idx, ins in enumerate(program.instrs):
        if idx in tail:
            continue
        if dst_of(ins) is not None and not isinstance(ins, LoadInput):
            sites.append(WriteOf(idx))
    for idx, ins in enumerate(program.instrs):
        if idx in tail or isinstance(ins, Ret):
            continue
        for slot, _reg in reads_of(ins):
            sites.append(ReadOf(idx, slot))
    n = len(program.instrs)
    loads = {i for i, ins in enumerate(program.instrs) if isinstance(ins, LoadInput)}
    for length in range(1, max_skip_len + 1):
        for first in range(0, n - length + 1):
            if any(i in loads for i in range(first, first + length)):
                continue
            sites.append(SkipRange(first, first + length - 1))
    return sites


# ------------------------------------------------------------------ execution


def same_result(a: ExecResult, b: ExecResult) -> bool:
    """Observable equality: the error constant is opaque to the attacker."""
    if isinstance(a, Signature) and isinstance(b, Signature):
        return a.value == b.value
    if isinstance(a, ErrorOut) and isinstance(b, ErrorOut):
        return True
    if isinstance(a, Crash) and isinstance(b, Crash):
        return a.reason == b.reason
    return False


@dataclass(frozen=True)
class ExecOutcome:
    result: ExecResult
    trace: tuple[tuple[int, str, int], ...]  # (index, register, stored value)
    draws: tuple[tuple[int, int], ...]  # (index, drawn value)

    def regs(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for _idx, reg, val in self.trace:
            out[reg] = val
        return out


_TWICE = "a plan faults one site twice"


def plan_faults(plan: FaultPlan, n: int) -> DecodedPlan:
    """A plan over n instructions as (write replacements, read replacements
    by index then slot, bitmask of skipped indices, bitmask of the indices
    FaultRunner must re-evaluate first). The skipped mask holds index i as
    bit i; the pending mask holds it as bit n-1-i, the order of
    CompiledProgram.readers. A site past either end changes nothing. A
    plan that names one site twice is refused with ValueError, as it is
    decoded: a write index already in writes, a read slot already in its
    instruction's reads, a window seen before. Overlapping windows, and a
    write inside a window, are different sites.
    """
    writes: dict[int, int] = {}
    reads: dict[int, dict[int, int]] = {}
    windows: list[SkipRange] = []
    skipped = pending = 0
    for act in plan:
        site = act.site
        cls = site.__class__
        if cls is SkipRange:
            if site in windows:
                raise ValueError(_TWICE)
            windows.append(site)
            first, last = max(site.first, 0), min(site.last, n - 1)
            if first <= last:
                skipped |= (1 << (last + 1)) - (1 << first)
                pending |= (1 << (n - first)) - (1 << (n - 1 - last))
            continue
        i = site.index
        if cls is WriteOf:
            if i in writes:
                raise ValueError(_TWICE)
            writes[i] = act.value or 0
        else:
            slots = reads.setdefault(i, {})
            if site.slot in slots:
                raise ValueError(_TWICE)
            slots[site.slot] = act.value or 0
        if 0 <= i < n:
            pending |= 1 << (n - 1 - i)
    return writes, reads, skipped, pending


def _site_rng(seed: int, index: int, salt: int) -> random.Random:
    return random.Random((seed * 0x9E3779B1 + index * 0x85EBCA77 + salt) & 0xFFFFFFFFFFFF)


@functools.lru_cache(maxsize=8192)
def skip_fill_value(seed: int, index: int) -> int:
    """Deterministic junk a skipped store leaves behind in its register."""
    return _site_rng(seed, index, 0x5F17).getrandbits(32)


def draw_prime_value(seed: int, index: int, bits: int, avoid: set[int]) -> int:
    """The prime DrawRandomPrime at this site yields under this seed."""
    return _draw_prime_cached(seed, index, bits, frozenset(avoid))


@functools.lru_cache(maxsize=8192)
def _draw_prime_cached(seed: int, index: int, bits: int, avoid: frozenset[int]) -> int:
    rng = _site_rng(seed, index, 0xD4A3)
    lo, hi = 1 << (bits - 1), 1 << bits
    for _ in range(200000):
        c = rng.randrange(lo, hi)
        if is_prime(c) and c not in avoid:
            return c
    raise ValueError(f"prime pool of width {bits} exhausted by avoid set")


def execute(
    program: Program,
    inputs: dict[str, int],
    seed: int = 0,
    plan: FaultPlan = (),
) -> ExecOutcome:
    """Run a program under a fault plan.

    Deterministic given (program, inputs, seed, plan). Malformed runtime
    state induced by faults (modulus < 2, negative exponent, impossible
    inverse, inexact division) ends the run with a Crash.
    """
    steps = program.steps
    writes, reads, skipped, _pending = plan_faults(plan, len(steps))
    env = (inputs, seed)
    regs: dict[str, int] = {}
    trace: list[tuple[int, str, int]] = []
    draws: list[tuple[int, int]] = []
    # a skipped Return releases the zero-initialized output buffer
    result: ExecResult = Signature(0)
    for idx, (ins, rule, operands, slots, dst) in enumerate(steps):
        if skipped >> idx & 1:
            if dst is None:
                continue  # a skipped check passes; a skipped Return is settled above
            val = skip_fill_value(seed, idx)
        else:
            xs = [regs.get(r, 0) for r in operands]
            rd = reads.get(idx)
            if rd:
                for slot, v in rd.items():
                    if 0 <= slot < slots:
                        xs[slot] = v
            val = rule(xs, env)
            if val.__class__ is not int:
                if val is None:
                    continue  # a check that passed
                if val.__class__ in _ENDS:
                    result = val
                    break
            if ins.__class__ is DrawRandomPrime:
                draws.append((idx, val))
        val = writes.get(idx, val)
        regs[dst] = val
        trace.append((idx, dst, val))
    return ExecOutcome(result, tuple(trace), tuple(draws))


# ------------------------------------------------------------- campaign runner


@dataclass(frozen=True)
class CompiledProgram:
    """A program lowered to what FaultRunner needs, one row per instruction.

    A register is named by the index of the instruction that writes it.
    ops[i] is (instruction, scalar rule bound to operand positions 0..k-1
    as in Program.steps, writer indices of its k operand registers, read
    slots, vector kernel or None). bound[i] is the same scalar rule bound
    to the writer indices, so bound[i](values, env) evaluates instruction i
    straight from a list of values indexed like ops. readers[i] is the
    bitmask of the instructions whose operands see the value instruction i
    stores, instruction j being bit n-1-j of n: the lowest index of a mask
    is its highest set bit, so a walk in program order takes bit_length.
    top[b] is 1 << b >> 1, the bit of index n-b, shared by every runner of
    the program.
    """

    ops: tuple[tuple[Instr, Callable, tuple[int, ...], int, Callable | None], ...]
    bound: tuple[Callable, ...]
    readers: tuple[int, ...]
    top: tuple[int, ...]


def _compile(program: Program) -> CompiledProgram:
    check_runnable(program)
    n = len(program.instrs)
    writer: dict[str, int] = {}
    ops, bound = [], []
    readers = [0] * n
    for i, (ins, rule, operands, slots, dst) in enumerate(program.steps):
        # validation puts every operand, lookups included, after its write
        srcs = tuple(writer[r] for r in operands)
        for s in srcs:
            readers[s] |= 1 << (n - 1 - i)
        row = OPCODES[type(ins)]
        ops.append((ins, rule, srcs, slots, row.vector))
        bound.append(row.bind(ins, srcs, i))
        if dst is not None:
            writer[dst] = i
    top = tuple(1 << b >> 1 for b in range(n + 1))
    return CompiledProgram(tuple(ops), tuple(bound), tuple(readers), top)


# first-fault records FaultRunner.run keeps per runner: the erase-the-check
# grids run every plan of one first fault in a row
_WALK_MEMO_SIZE = 64


# per-index fault lists of a batch (FaultRunner.run_batch): writes[i] holds
# (lane, replacement) pairs, reads[i] (lane, slot, replacement) triples and
# skips[i] the lanes that skip instruction i
BatchWrites = dict[int, list[tuple[int, int]]]
BatchReads = dict[int, list[tuple[int, int, int]]]
BatchSkips = dict[int, list[int]]


class FaultRunner:
    """Faulted runs of one program on one input map and seed.

    Construction runs the fault-free baseline through `execute` and keeps
    it (`baseline`, `signature`). `run(plan)` gives the same ExecResult as
    `execute(program, inputs, seed, plan).result`, without trace or draws,
    by recomputing only what the plan can change: starting at its first
    faulted index, an instruction is re-evaluated when it is faulted or
    skipped, or when a register it reads now differs from the baseline.
    Every other instruction keeps its baseline value; its checks pass and
    the Return releases the baseline signature, as they did in the baseline
    run. A plan that faults two or more indices takes its walk below its
    second faulted index from a record of its first fault, which the
    runner keeps (see `_first_walk`). `run_batch` applies the same rule
    to many plans in one pass, and keeps no record. This relies on
    def-before-use, write-once registers, so a program that `validate`
    rejects raises BuildError here. Campaigns get their runners from
    faultengine, which keeps them in Program._runners.
    """

    def __init__(self, program: Program, inputs: dict[str, int], seed: int):
        code = program.compiled
        self.baseline = execute(program, inputs, seed=seed)
        if not isinstance(self.baseline.result, Signature):
            raise ValueError(f"fault-free baseline of {program.name} is {self.baseline.result}")
        self.signature: int = self.baseline.result.value
        self._env = (inputs, seed)
        self._ops = code.ops
        self._bound = code.bound
        self._readers = code.readers
        self._top = code.top
        n = len(code.ops)
        self._base = [0] * n
        for idx, _reg, val in self.baseline.trace:
            self._base[idx] = val
        self._ret = n - 1  # validation puts Return last
        self._walks: dict[tuple, list] = {}  # first-fault records, see _first_walk

    def run(self, plan: FaultPlan) -> ExecResult:
        """execute(program, inputs, seed, plan).result. The pending mask
        holds the indices still to re-evaluate in the readers' order, index i
        as bit n-1-i, so the lowest is the top bit: index n - bit_length.
        With a second faulted index i2, the walk below i2 comes from the
        first fault's record (_first_walk), and the pending mask starts as
        what that leaves pending from i2 on, with the plan's own indices.
        Each call evaluates an instruction at most once, in ascending
        index order."""
        n = len(self._ops)
        writes, reads, skipped, pending = plan_faults(plan, n)
        bound, readers, base, env = self._bound, self._readers, self._base, self._env
        top = self._top
        own = pending  # the indices the plan faults or skips
        vals = base.copy()
        b = pending.bit_length()
        rest = pending ^ top[b]
        if rest:  # a second faulted index: resume there from the first fault's record
            walk = self._first_walk(n - b, n - rest.bit_length(), vals, writes, reads, skipped)
            if walk.__class__ is not int:
                return walk  # the first fault's walk ended below the second
            pending = walk | rest
        while pending:
            b = pending.bit_length()
            low = top[b]
            pending ^= low
            i = n - b
            if own & low:
                v = self._faulted(i, vals, writes, reads, skipped)
            else:
                v = bound[i](vals, env)
            if v.__class__ is not int:
                if v is None:
                    continue  # a check that passed or was skipped
                return v
            if v != base[i]:
                vals[i] = v
                pending |= readers[i]
        if skipped >> self._ret & 1:
            return Signature(0)  # the output buffer keeps its zero initialization
        return self.baseline.result

    def _first_walk(
        self, i1: int, i2: int, vals: list[int], writes: dict, reads: dict, skipped: int
    ) -> int | ExecResult:
        """run's walk below i2 of the faults at i1 alone, from their record.

        Below i2 a plan faults nothing but i1, so its walk there is that
        of the faults at i1 alone, shared by every plan with the same
        ones. The record is keyed on i1 and those faults, as plan_faults
        decodes them: the write replacement, the read replacements and
        whether i1 is skipped. It holds [changes, horizon, end]: each
        (index, stored value, readers mask accumulated so far) the walk
        changed, in index order; the index below which it is complete;
        and (index, ErrorOut or Crash) if the walk ended, its horizon then
        being n. This returns the recorded end if it lies below i2 (the
        End rule). Otherwise it puts the recorded values below i2 into
        vals and returns the accumulated readers from i2 on, which is
        empty when the fault was absorbed below i2 (the Absorption rule).
        A record whose horizon lies below i2 is first walked on to i2 in
        vals, in this call, so nothing is evaluated twice. At most
        _WALK_MEMO_SIZE records are kept; the oldest goes first.
        """
        n = len(vals)
        rd = reads.get(i1)
        key = (i1, writes.get(i1), tuple(rd.items()) if rd else (), skipped >> i1 & 1)
        memo = self._walks
        rec = memo.get(key)
        if rec is None:
            if len(memo) >= _WALK_MEMO_SIZE:
                del memo[next(iter(memo))]
            rec = memo[key] = [[], i1, None]
        changes, horizon, end = rec
        if end is not None and end[0] < i2:
            return end[1]
        acc = 0
        for j, v, acc_j in changes:
            if j >= i2:
                break
            vals[j] = v
            acc = acc_j
        if horizon < i2:
            bound, readers, base, env = self._bound, self._readers, self._base, self._env
            top = self._top
            pending = (acc | top[n - i1]) & (1 << (n - horizon)) - 1
            while pending:
                b = pending.bit_length()
                i = n - b
                if i >= i2:
                    break
                pending ^= top[b]
                if i == i1:
                    v = self._faulted(i, vals, writes, reads, skipped)
                else:
                    v = bound[i](vals, env)
                if v.__class__ is not int:
                    if v is None:
                        continue
                    rec[1:] = n, (i, v)
                    return v
                if v != base[i]:
                    vals[i] = v
                    pending |= readers[i]
                    acc |= readers[i]
                    changes.append((i, v, acc))
            rec[1] = i2
        return acc & (1 << (n - i2)) - 1

    def _faulted(
        self, i: int, vals: list[int], writes: dict, reads: dict, skipped: int
    ) -> int | ExecResult | None:
        """run's step for an index its plan faults or skips: the value
        instruction i stores, None if it stores none, or the end of the run."""
        ins, rule, srcs, slots, _vector = self._ops[i]
        if skipped >> i & 1:
            if dst_of(ins) is None:
                return None  # a skipped check passes; a skipped Return is settled in run
            v = skip_fill_value(self._env[1], i)
        else:
            rd = reads.get(i)
            if rd:
                xs = [vals[s] for s in srcs]
                for slot, rv in rd.items():
                    if 0 <= slot < slots:
                        xs[slot] = rv
                v = rule(xs, self._env)
            else:
                v = self._bound[i](vals, self._env)
            if v.__class__ is not int:
                return v
        return writes.get(i, v)

    def run_batch(
        self, lanes: int, writes: BatchWrites, reads: BatchReads, skips: BatchSkips
    ) -> list[ExecResult]:
        """The results of `lanes` plans, lane k's being run(plan k), in one pass.

        writes, reads and skips list each lane's faults per index, naming a
        site at most once per lane, as plan_faults requires of a plan; a read
        slot outside the instruction's read slots changes nothing. The pass
        follows run's rule for all lanes at once, in program order: it
        evaluates an instruction some lane faults or skips, or one reading a
        value some lane changed, through the vector kernel where it applies
        and the scalar rule lane by lane elsewhere, then puts each lane's skip
        fills and write replacements in. A stored lane list that equals the
        baseline value in every lane is not kept, so it wakes no reader. A
        lane that reaches an ErrorOut or Crash keeps that end and drops out;
        a lane never ended keeps the baseline result, or Signature(0) when it
        skips the Return.
        """
        readers, base, env, top = self._readers, self._base, self._env, self._top
        n = len(self._ops)
        results = [self.baseline.result] * lanes
        mask = sum(1 << (n - 1 - i) for i in {*writes, *reads, *skips})
        alive = list(range(lanes))  # the lane at each position of a lane list
        at, at_alive = None, alive  # each running lane's position (None: its lane)
        vecs: dict[int, list] = {}  # lane lists of stored values, by index
        while mask:
            b = mask.bit_length()
            low = top[b]
            mask ^= low
            j = n - b
            ins, rule, srcs, slots, vector = self._ops[j]
            stores = dst_of(ins) is not None
            rd, skipping = reads.get(j), skips.get(j)
            putting = writes.get(j) if stores else None
            if at_alive is not alive and (rd or skipping or putting):
                at, at_alive = dict(zip(alive, range(len(alive)))), alive
            xs = [vecs[s] if s in vecs else base[s] for s in srcs]
            laned = not vecs.keys().isdisjoint(srcs)
            if rd:
                own = set()  # slots whose lane list is this instruction's copy
                for lane, slot, v in rd:
                    k = lane if at is None else at.get(lane)
                    if k is not None and 0 <= slot < slots:
                        if slot not in own:
                            x = xs[slot]
                            xs[slot] = [x] * len(alive) if x.__class__ is int else x.copy()
                            own.add(slot)
                        xs[slot][k] = v
                laned = laned or bool(own)
            ends = not stores  # whether out may hold an ExecResult
            out = vector(xs, j) if laned and vector else None
            if out is None and laned:
                ends = True
                out = [
                    rule([x[k] if x.__class__ is list else x for x in xs], env)
                    for k in range(len(alive))
                ]
            if out is None:  # every lane computes the baseline
                if not (skipping or putting):
                    continue
                out = [base[j] if stores else None] * len(alive)
            if skipping:
                if stores:
                    fill = skip_fill_value(env[1], j)
                else:  # a skipped check passes; a skipped Return releases the zero buffer
                    fill = Signature(0) if j == self._ret else None
                for lane in skipping:
                    k = lane if at is None else at.get(lane)
                    if k is not None:
                        out[k] = fill
            for lane, v in putting or ():
                k = lane if at is None else at.get(lane)
                if k is not None and out[k].__class__ is int:
                    out[k] = v
            if ends:
                ended = [k for k, v in enumerate(out) if v.__class__ in _ENDS]
                if ended:
                    for k in ended:
                        results[alive[k]] = out[k]
                    if len(ended) == len(out):
                        return results
                    keep = [k for k, v in enumerate(out) if v.__class__ not in _ENDS]
                    alive = [alive[k] for k in keep]
                    out = [out[k] for k in keep]
                    # compact only the lists a later instruction still reads
                    vecs = {s: [v[k] for k in keep] for s, v in vecs.items() if readers[s] & low - 1}
            if stores and out.count(base[j]) < len(out):
                vecs[j] = out
                mask |= readers[j]
        return results


# ----------------------------------------------------------------- text dumps


def _instr_line(idx: int, ins: Instr) -> str:
    row = OPCODES[type(ins)]
    dst = dst_of(ins)
    words = [row.keyword] if dst is None else [dst, "<-", row.keyword]
    for f in row.printed:
        v = getattr(ins, f)
        if f not in _TAGS:
            words.append(str(v))
        elif v:
            words += [_TAGS[f], ",".join(v) if f == row.lookups else v]
    return f"{idx}: " + " ".join(words)


def dump_program(program: Program) -> str:
    """Stable line-oriented text form, metadata in comment lines."""
    lines = [f"# program {program.name}", f"# inputs {' '.join(program.inputs)}"]
    lines += [_instr_line(i, ins) for i, ins in enumerate(program.instrs)]
    for tag, f, item in _META_LINES:
        v = getattr(program.meta, f)
        if not v:
            continue
        if item is InfectionFactor:
            words = (" ".join("-" if w is None else str(w) for w in astuple(x)) for x in v)
            lines += [f"# {tag} {ws}" for ws in words]
        else:
            lines.append(f"# {tag} " + " ".join(map(str, v if isinstance(v, tuple) else (v,))))
    return "\n".join(lines) + "\n"


def program_digest(program: Program) -> str:
    return hashlib.sha256(dump_program(program).encode()).hexdigest()[:16]


def _parse_instr(line: str) -> Instr:
    """One instruction line of a dump; ValueError unless it is well formed."""
    toks = line.partition(": ")[2].split()  # indices are positional
    fields: dict[str, object] = {}
    try:
        if len(toks) > 1 and toks[1] == "<-":
            fields["dst"], toks = toks[0], toks[2:]
        cls = _BY_KEYWORD.get(toks[0] if toks else None)
        if cls is None:
            raise ValueError("no known keyword")
        row = OPCODES[cls]
        plain = [f for f in row.printed if f not in _TAGS]
        args, tagged = toks[1 : 1 + len(plain)], toks[1 + len(plain) :]
        if len(tagged) % 2:
            raise ValueError("a tag without its value")
        types = dict(row.immediates)
        for f, tok in zip(plain, args):
            fields[f] = types.get(f, str)(tok)
        tags = {_TAGS[f]: f for f in row.printed if f in _TAGS}
        for tag, tok in zip(tagged[::2], tagged[1::2]):
            f = tags[tag]
            fields[f] = tuple(tok.split(",")) if f == row.lookups else tok
        return cls(**fields)
    except (KeyError, TypeError, ValueError) as exc:
        # unknown tag, missing or unexpected field, bad integer
        raise ValueError(f"cannot parse line {line!r}: {exc}") from None


def parse_dump(text: str) -> Program:
    """Inverse of dump_program (round-trips metadata).

    A line that is not well formed, whose metadata names an instruction
    index the program does not have, or whose phases do not tag each
    instruction once, raises ValueError naming it; a comment line with an
    unknown tag is ignored.
    """
    name = "parsed"
    inputs: tuple[str, ...] = ()
    instrs: list[Instr] = []
    meta: dict[str, object] = {}
    indexed: list[tuple[str, tuple[int, ...]]] = []  # metadata lines naming indices
    phases_line = ""
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if not line.startswith("#"):
            instrs.append(_parse_instr(line))
            continue
        parts = line[1:].split()
        if not parts:
            continue
        tag, rest = parts[0], parts[1:]
        try:
            if tag == "program" and rest:
                name = rest[0]
            elif tag == "inputs":
                inputs = tuple(rest)
            elif tag in _META_BY_TAG:
                f, item = _META_BY_TAG[tag]
                if item is InfectionFactor:
                    words = zip(_FACTOR_TYPES, rest, strict=True)
                    x = item(*(_meta_value(t, w) for t, w in words))
                    meta[f] = meta.get(f, ()) + (x,)
                    indexed.append((line, (x.diff_idx, x.c_idx)))
                elif isinstance(getattr(_NO_META, f), tuple):
                    meta[f] = tuple(map(item, rest))
                    if item is int:  # checks, infection and tail list indices
                        indexed.append((line, meta[f]))
                    elif f == "phases":
                        phases_line = line
                else:
                    meta[f] = item(rest[0])
        except (IndexError, ValueError):  # a missing, extra or non-integer field
            raise ValueError(f"cannot parse line {line!r}") from None
    for line, idxs in indexed:
        bad = [i for i in idxs if not 0 <= i < len(instrs)]
        if bad:
            raise ValueError(f"cannot parse line {line!r}: no instruction {bad[0]}")
    if phases_line and len(meta["phases"]) != len(instrs):
        raise ValueError(
            f"cannot parse line {phases_line!r}: {len(meta['phases'])} phases "
            f"for {len(instrs)} instructions"
        )
    return Program(name=name, inputs=inputs, instrs=tuple(instrs), meta=ProgramMeta(**meta))


# -------------------------------------------------------------------- builder


class ProgramBuilder:
    """Incremental construction of a Program with per-instruction phase tags.

    Register names double as identifiers in dumps, so builders keep them
    short. Emission order is program order; all emit helpers return the
    instruction index, and emit tags its instruction with the current phase
    unless given one, so a rewrite can copy each source tag. instrs holds
    the stream and factors the infection factors recorded so far.
    """

    def __init__(self, name: str, inputs: tuple[str, ...]):
        self.name = name
        self.inputs = inputs
        self.instrs: list[Instr] = []
        self.factors: list[InfectionFactor] = []
        self._phases: list[str] = []
        self._phase = "load"
        self._infection: list[int] = []
        self._one: str | None = None

    def set_phase(self, tag: str) -> None:
        self._phase = tag

    def emit(self, ins: Instr, phase: str | None = None) -> int:
        self.instrs.append(ins)
        self._phases.append(phase or self._phase)
        return len(self.instrs) - 1

    def inp(self, reg: str, name: str | None = None) -> int:
        return self.emit(LoadInput(reg, name or reg))

    def draw(self, reg: str, bits: int, avoid: tuple[str, ...] = ()) -> int:
        return self.emit(DrawRandomPrime(reg, bits, avoid))

    def const(self, reg: str, value: int) -> int:
        return self.emit(Const(reg, value))

    def one(self, reg: str = "one") -> str:
        """The unit register, written as reg the first time it is asked for."""
        if self._one is None:
            self.const(reg, 1)
            self._one = reg
        return self._one

    def add(self, dst: str, a: str, b: str, mod: str | None = None) -> int:
        return self.emit(Add(dst, a, b, mod))

    def sub(self, dst: str, a: str, b: str, mod: str | None = None) -> int:
        return self.emit(Sub(dst, a, b, mod))

    def mul(self, dst: str, a: str, b: str, mod: str | None = None) -> int:
        return self.emit(Mul(dst, a, b, mod))

    def div(self, dst: str, a: str, b: str) -> int:
        return self.emit(Div(dst, a, b))

    def reduce(self, dst: str, src: str, mod: str) -> int:
        return self.emit(ModReduce(dst, src, mod))

    def exp(self, dst: str, base: str, e: str, mod: str) -> int:
        return self.emit(ModExp(dst, base, e, mod))

    def inv(self, dst: str, src: str, mod: str) -> int:
        return self.emit(ModInv(dst, src, mod))

    def check(self, a: str, b: str, mod: str | None = None) -> int:
        return self.emit(CheckEq(a, b, mod))

    def ret(self, src: str) -> int:
        return self.emit(Ret(src))

    def factor(self, dst: str, a: str, b: str, mod: str | None, diff: str) -> int:
        """dst = (a - b + 1) mod `mod`, through diff = (a - b) mod `mod`:
        the infection factor replacing the check a == b, recorded in
        factors as the next group."""
        di = self.sub(diff, a, b, mod)
        ci = self.add(dst, diff, self.one(), mod)
        self.factors.append(InfectionFactor(dst, a, b, mod, di, ci, len(self.factors)))
        return ci

    def infect(
        self, base: str, c_regs: list[str], mod: str, name: Callable[[str], str]
    ) -> tuple[int, ...]:
        """Release base^(c_regs[0] * c_regs[1] * ...) mod `mod`.

        Emits the left-fold product (registers name("m1"), name("m2"), ...)
        tagged infect, the power (name("s")) tagged output and the Return
        of it, and records product and power as the infection chain.
        Returns the indices of the chain and the Return.
        """
        chain = []
        acc = c_regs[0]
        for k, c in enumerate(c_regs[1:], 1):
            reg = name(f"m{k}")
            chain.append(self.emit(Mul(reg, acc, c), "infect"))
            acc = reg
        sig = name("s")
        chain.append(self.emit(ModExp(sig, base, acc, mod), "output"))
        self._infection += chain
        return (*chain, self.ret(sig))

    def recombine(
        self, dst: str, hi: str, lo: str, q: str, iq: str, inner_mod: str
    ) -> int:
        """dst = lo + q * ((iq * (hi - lo)) mod inner_mod)."""
        self.sub(f"{dst}_d", hi, lo)
        self.mul(f"{dst}_m", iq, f"{dst}_d", mod=inner_mod)
        self.mul(f"{dst}_t", q, f"{dst}_m")
        return self.add(dst, lo, f"{dst}_t")

    def build(self, base: ProgramMeta = _NO_META, **changes) -> Program:
        """The stream as a runnable Program; BuildError if it is not.

        Its meta is base with the stream's phases, its CheckEq positions as
        verification_checks, the recorded factors and infection chain, and
        the unit register if one() wrote one, laid over it, then changes.
        """
        instrs = tuple(self.instrs)
        checks = tuple(i for i, ins in enumerate(instrs) if isinstance(ins, CheckEq))
        derived = {
            "phases": tuple(self._phases),
            "verification_checks": checks,
            "factors": tuple(self.factors),
            "infection_indices": tuple(self._infection),
            "one_reg": self._one or base.one_reg,
        }
        prog = Program(self.name, self.inputs, instrs, replace(base, **{**derived, **changes}))
        check_runnable(prog)
        return prog


# ------------------------------------------------------------------- look-ups


def find_write(program: Program, reg: str) -> int:
    """Index of the instruction that stores `reg` (registers are write-once)."""
    for i, ins in enumerate(program.instrs):
        if dst_of(ins) == reg:
            return i
    raise KeyError(f"no instruction writes {reg!r}")
