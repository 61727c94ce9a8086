"""Rewrites between verification styles, and verification replication.

to_infective turns each equality check of a test-based program into a
multiplicative factor c = (a - b + 1) mod m and routes the released value
through base^(prod c) mod N, so a violated invariant scrambles the output
instead of branching to an error constant. to_testbased undoes that rewrite
when the infection machinery has the canonical product/power shape. harden
replicates every verification unit together with the instructions feeding
only it, which is what pushes erase-the-check attacks one fault order up.

Each rewrite is one pass over its source, writing the result through
circuit.ProgramBuilder, the builder the catalog uses: each copied
instruction keeps its source's phase tag, to_infective writes its factors
with the builder's factor method and every rewrite its product/power chain
with infect, and build lays the changes over the source's metadata. Those
shapes are recognized by replaying the same two methods: what they emit
must be the very instructions the program holds. harden takes who reads
each value from the compiled program (Program.compiled). Helper
registers a rewrite inserts (the unit constant, the public modulus product)
use the reserved names below and are emitted immediately before their first
consumer. Position matters: random draws are seeded by instruction index, so
inserting anything upstream of a draw would hand the rewritten program
different checksum primes than its source. harden names every register it
adds, copies and chain alike, by one rule: the stem ({dst}h{t} for copy t of
dst, hm{k} and hs for the chain), with "x" appended until no register of the
source or added before it has that name. Hardened programs therefore harden
again.
"""

from __future__ import annotations

from dataclasses import replace

from .circuit import (
    CheckEq,
    Const,
    DrawRandomPrime,
    InfectionFactor,
    LoadInput,
    ModExp,
    Mul,
    Program,
    ProgramBuilder,
    Ret,
    check_runnable,
    dst_of,
    reads_of,
    registers_of,
    rename_registers,
)

ONE_RESERVED = "onei"  # unit constant owned by the infection factors
N_RESERVED = "ni"  # public modulus product likewise


class NotTestBased(ValueError):
    """The program has no equality checks to turn into factors."""


class NotInfective(ValueError):
    """The program records no verification factors."""


class UnrecognizedInfectionShape(ValueError):
    """Factors exist but the infection is not the product/power form."""


class NoVerifications(ValueError):
    """Nothing to replicate: neither checks nor factors."""


def _phases_of(program: Program) -> list[str]:
    """Each instruction's phase tag (main if none); BuildError unless runnable."""
    check_runnable(program)
    return list(program.meta.phases) or ["main"] * len(program.instrs)


# ----------------------------------------------------------- style rewrites


def to_infective(program: Program) -> Program:
    """Replace every CheckEq with a factor and infect the released value."""
    if not any(isinstance(ins, CheckEq) for ins in program.instrs):
        raise NotTestBased(f"{program.name} has no equality checks")
    if not isinstance(program.instrs[-1], Ret):
        raise NotTestBased(f"{program.name} has no final return")
    phases = _phases_of(program)
    n_reg = program.meta.n_reg
    loads = {i.name: i.dst for i in program.instrs if isinstance(i, LoadInput)}
    need_n = n_reg is None
    if need_n:
        if "p" not in loads or "q" not in loads:
            raise NotTestBased(f"{program.name} gives no way to form the public modulus")
        n_reg = N_RESERVED

    out = ProgramBuilder(program.name + "-infective", program.inputs)
    idx_map: dict[int, int] = {}
    chain: list[int] = []
    helper_tail: list[int] = []
    for i, ins in enumerate(program.instrs):
        out.set_phase(phases[i])
        if isinstance(ins, CheckEq):
            # the listings' "+1" is an immediate: give it its own register so
            # no fault on a core constant can reach into the infection factors
            out.one(ONE_RESERVED)
            k = len(out.factors)
            idx_map[i] = out.factor(f"inf{k}c", ins.a, ins.b, ins.mod, f"inf{k}d")
        elif isinstance(ins, Ret):
            if need_n:
                # feeds only the final power's modulus slot: output machinery
                helper_tail.append(out.emit(Mul(n_reg, loads["p"], loads["q"]), "infect"))
            c_regs = [f.c_reg for f in out.factors]
            *chain, idx_map[i] = out.infect(ins.src, c_regs, n_reg, lambda stem: "inf" + stem)
        else:
            idx_map[i] = out.emit(ins)

    tail = {idx_map[i] for i in program.meta.output_tail} | set(chain) | set(helper_tail)
    return out.build(program.meta, output_tail=tuple(sorted(tail)), n_reg=n_reg)


def _canonical_chain(program: Program) -> ModExp:
    """Verify the product/power shape by replaying infect; return the final power."""
    factors = program.meta.factors
    chain = [program.instrs[i] for i in program.meta.infection_indices]
    power = chain[-1] if chain else None
    if len(chain) == len(factors) and isinstance(power, ModExp):
        names = {f"m{k}": dst_of(ins) for k, ins in enumerate(chain[:-1], 1)} | {"s": power.dst}
        replay = ProgramBuilder(program.name, program.inputs)
        replay.infect(power.base, [f.c_reg for f in factors], power.mod, names.get)
        if replay.instrs == [*chain, program.instrs[-1]]:
            return power
    raise UnrecognizedInfectionShape(
        f"{program.name} does not release the product/power infection of its factors"
    )


def to_testbased(program: Program) -> Program:
    """Turn canonical infection back into equality checks.

    Inverse of to_infective up to exact equality. On a hand-written
    infective program the released value becomes the pre-infection base
    register, which may live in a wider ring than the public modulus.
    """
    factors = program.meta.factors
    if not factors:
        raise NotInfective(f"{program.name} records no verification factors")
    exp_ins = _canonical_chain(program)
    instrs = program.instrs

    check_at: dict[int, InfectionFactor] = {}
    drop: set[int] = set(program.meta.infection_indices)
    one_reg = program.meta.one_reg
    for f in factors:
        dins, cins = instrs[f.diff_idx], instrs[f.c_idx]
        replay = ProgramBuilder(program.name, program.inputs)
        replay.one(one_reg or getattr(cins, "b", None))  # else the unit the add reads
        replay.factor(f.c_reg, f.a_reg, f.b_reg, f.mod_reg, dst_of(dins))
        if replay.instrs[-2:] != [dins, cins]:
            raise UnrecognizedInfectionShape(
                f"factor {f.c_reg} is not ({f.a_reg} - {f.b_reg} + 1) mod {f.mod_reg}"
            )
        check_at[f.diff_idx] = f
        drop.add(f.diff_idx)
        drop.add(f.c_idx)

    # helper registers this module inserted are dropped once nothing kept
    # reads them: not the surviving instructions, the checks or the Return
    ret_idx = len(instrs) - 1
    kept = [ins for i, ins in enumerate(instrs[:ret_idx]) if i not in drop]
    read = {r for ins in kept for _s, r in reads_of(ins)} | {exp_ins.base}
    read |= {r for f in factors for r in (f.a_reg, f.b_reg, f.mod_reg)}
    dead = {ONE_RESERVED, N_RESERVED} - read
    drop |= {i for i, ins in enumerate(instrs) if dst_of(ins) in dead}

    phases = _phases_of(program)
    name = program.name
    if name.endswith("-infective"):
        name = name[: -len("-infective")]
    out = ProgramBuilder(name, program.inputs)
    idx_map: dict[int, int] = {}
    for i, ins in enumerate(instrs):
        if i == ret_idx:
            idx_map[i] = out.emit(Ret(exp_ins.base), phases[i])
        elif i in check_at:
            f = check_at[i]
            idx_map[i] = out.emit(CheckEq(f.a_reg, f.b_reg, f.mod_reg), phases[i])
        elif i not in drop:
            idx_map[i] = out.emit(ins, phases[i])

    if one_reg == ONE_RESERVED:
        # the reserved unit constant is dropped above; point back at a unit
        # constant surviving in the core, if the core carries one
        one_reg = next(
            (ins.dst for ins in out.instrs if isinstance(ins, Const) and ins.value == 1),
            None,
        )
    return out.build(
        program.meta,
        output_tail=tuple(sorted(idx_map[i] for i in program.meta.output_tail if i in idx_map)),
        n_reg=None if program.meta.n_reg == N_RESERVED else program.meta.n_reg,
        one_reg=one_reg,
    )


# -------------------------------------------------------------- replication


def _exclusive_slice(program: Program, unit: tuple[int, ...]) -> list[int]:
    """Instructions whose stored values feed nothing outside this unit.

    One pass over the compiled readers, from the unit's first instruction
    down to index 0: registers are write-once and defined before use, so
    every reader of instruction i sits at a higher index and is already
    classified when i is visited. inside holds instruction j as bit n-1-j,
    the readers' order. Input loads and random draws stay shared - a
    replicated draw would draw a different prime and the copies would
    verify different rings - and so does a computed register named in a
    draw's avoid list, which it reads.
    """
    readers = program.compiled.readers
    n = len(readers)
    inside = sum(1 << (n - 1 - j) for j in unit)
    members = []
    for i in range(min(unit) - 1, -1, -1):
        ins = program.instrs[i]
        if dst_of(ins) is None or isinstance(ins, (LoadInput, DrawRandomPrime)):
            continue
        if readers[i] and not readers[i] & ~inside:
            inside |= 1 << (n - 1 - i)
            members.append(i)
    return members


def harden(program: Program, copies: int) -> Program:
    """Replicate each verification unit and its exclusive feeding slice.

    copies is the total instance count per unit; 1 returns the program
    unchanged. Test-based units are single checks; infective units are
    factor groups, and the product chain is rebuilt over every copy so a
    single erased factor still leaves a detecting one in the exponent.
    Copies follow their unit's last instruction; the old chain is skipped
    and the new one is emitted at the Return, when every copy exists.
    """
    if copies < 1:
        raise ValueError("copies must be at least 1")
    if copies == 1:
        return program
    instrs = program.instrs
    check_idxs = [i for i, ins in enumerate(instrs) if isinstance(ins, CheckEq)]
    factors: tuple[InfectionFactor, ...] = ()
    if check_idxs:
        units: list[tuple[tuple[InfectionFactor, ...], tuple[int, ...]]] = [
            ((), (i,)) for i in check_idxs
        ]
    elif program.meta.factors:
        factors = program.meta.factors
        grouped: dict[int, list[InfectionFactor]] = {}
        for f in factors:
            grouped.setdefault(f.group, []).append(f)
        units = [
            (tuple(fs), tuple(sorted({i for f in fs for i in (f.diff_idx, f.c_idx)})))
            for _g, fs in sorted(grouped.items())
        ]
        exp_ins = _canonical_chain(program)
    else:
        raise NoVerifications(f"{program.name} verifies nothing to replicate")

    taken = {dst_of(ins) for ins in instrs}

    def fresh(stem: str) -> str:
        r = stem
        while r in taken:
            r += "x"
        taken.add(r)
        return r

    by_anchor = {unit[-1]: (ufs, unit) for ufs, unit in units}
    old_chain = set(program.meta.infection_indices) if factors else set()
    phases = _phases_of(program)
    out = ProgramBuilder(f"{program.name}-h{copies}", program.inputs)
    idx_map: dict[int, int] = {}
    copied: dict[int, list[InfectionFactor]] = {}  # factor c_idx -> its copies
    chain: list[int] = []
    for i, ins in enumerate(instrs):
        if i in old_chain:
            continue
        out.set_phase(phases[i])
        if factors and isinstance(ins, Ret):
            for f in factors:
                moved = replace(f, diff_idx=idx_map[f.diff_idx], c_idx=idx_map[f.c_idx])
                out.factors += [moved, *copied.get(f.c_idx, [])]
            c_regs = [f.c_reg for f in out.factors]
            *chain, idx_map[i] = out.infect(
                exp_ins.base, c_regs, exp_ins.mod, lambda stem: fresh("h" + stem)
            )
            continue
        idx_map[i] = out.emit(ins)
        if i not in by_anchor:
            continue
        ufs, unit = by_anchor[i]
        block = sorted(_exclusive_slice(program, unit) + list(unit))
        dsts = [dst_of(instrs[j]) for j in block]
        for t in range(1, copies):
            ren = {r: fresh(f"{r}h{t}") for r in dsts if r is not None}
            placed = {j: out.emit(rename_registers(instrs[j], ren), phases[j]) for j in block}
            for f in ufs:
                a, b, m = (ren.get(r, r) for r in (f.a_reg, f.b_reg, f.mod_reg))
                copy = InfectionFactor(
                    ren[f.c_reg], a, b, m, placed[f.diff_idx], placed[f.c_idx], f.group
                )
                copied.setdefault(f.c_idx, []).append(copy)

    tail = {idx_map[i] for i in program.meta.output_tail if i in idx_map} | set(chain)
    return out.build(program.meta, output_tail=tuple(sorted(tail)))


# -------------------------------------------------------------- comparison


def program_isomorphic(a: Program, b: Program) -> bool:
    """Same instruction stream up to a consistent register renaming.

    Inputs must match by name and position; metadata is not compared.
    """
    if len(a.instrs) != len(b.instrs) or a.inputs != b.inputs:
        return False
    fwd: dict[str, str] = {}
    rev: dict[str, str] = {}

    def bind(x: str | None, y: str | None) -> bool:
        if x is None or y is None:
            return x is None and y is None
        return fwd.setdefault(x, y) == y and rev.setdefault(y, x) == x

    for ia, ib in zip(a.instrs, b.instrs):
        # bind the registers field by field; what renaming leaves must match
        pairs = list(zip(registers_of(ia), registers_of(ib)))
        if not all(bind(x, y) for x, y in pairs) or rename_registers(ia, dict(pairs)) != ib:
            return False
    return True
