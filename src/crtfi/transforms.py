"""Rewrites between verification styles, and verification replication.

to_infective turns each equality check of a test-based program into a
multiplicative factor c = (a - b + 1) mod m and routes the released value
through base^(prod c) mod N, so a violated invariant scrambles the output
instead of branching to an error constant. to_testbased undoes that rewrite
when the infection machinery has the canonical product/power shape. harden
replicates every verification unit together with the instructions feeding
only it, which is what pushes erase-the-check attacks one fault order up.

Helper registers a rewrite inserts (the unit constant, the public modulus
product) use the reserved names below and are emitted immediately before
their first consumer. Position matters: random draws are seeded by
instruction index, so inserting anything upstream of a draw would hand the
rewritten program different checksum primes than its source.
"""

from __future__ import annotations

from dataclasses import replace

from .circuit import (
    BinOp,
    CheckEq,
    Const,
    DrawRandomPrime,
    InfectionFactor,
    Instr,
    LoadInput,
    ModExp,
    Program,
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
    ph = program.meta.phases
    if len(ph) == len(program.instrs):
        return list(ph)
    return ["main"] * len(program.instrs)


class _Listing:
    """A rewritten instruction stream, one phase tag per instruction."""

    def __init__(self) -> None:
        self.instrs: list[Instr] = []
        self.phases: list[str] = []

    def emit(self, ins: Instr, phase: str) -> int:
        self.instrs.append(ins)
        self.phases.append(phase)
        return len(self.instrs) - 1

    def program(self, source: Program, name: str, **meta) -> Program:
        """The stream as a valid program with source's metadata, as updated."""
        result = Program(
            name,
            source.inputs,
            tuple(self.instrs),
            replace(source.meta, phases=tuple(self.phases), **meta),
        )
        check_runnable(result)
        return result


# ----------------------------------------------------------- style rewrites


def to_infective(program: Program) -> Program:
    """Replace every CheckEq with a factor and infect the released value."""
    if not any(isinstance(ins, CheckEq) for ins in program.instrs):
        raise NotTestBased(f"{program.name} has no equality checks")
    if not isinstance(program.instrs[-1], Ret):
        raise NotTestBased(f"{program.name} has no final return")
    phases = _phases_of(program)
    n_reg = program.meta.n_reg
    # the listings' "+1" is an immediate: give it its own register so no
    # fault on a core constant can reach into the infection factors
    one_reg = ONE_RESERVED
    need_n = n_reg is None
    if need_n:
        loads = {i.name: i.dst for i in program.instrs if isinstance(i, LoadInput)}
        if "p" not in loads or "q" not in loads:
            raise NotTestBased(f"{program.name} gives no way to form the public modulus")
        n_reg = N_RESERVED

    out = _Listing()
    emit = out.emit
    idx_map: dict[int, int] = {}
    factors: list[InfectionFactor] = []
    infection: list[int] = []
    helper_tail: list[int] = []
    k = 0
    for i, ins in enumerate(program.instrs):
        if isinstance(ins, CheckEq):
            if k == 0:
                emit(Const(one_reg, 1), phases[i])
            d_reg, c_reg = f"inf{k}d", f"inf{k}c"
            di = emit(BinOp(d_reg, "sub", ins.a, ins.b, ins.mod), phases[i])
            ci = emit(BinOp(c_reg, "add", d_reg, one_reg, ins.mod), phases[i])
            factors.append(InfectionFactor(c_reg, ins.a, ins.b, ins.mod, di, ci, k))
            idx_map[i] = ci
            k += 1
        elif isinstance(ins, Ret):
            if need_n:
                loads = {x.name: x.dst for x in program.instrs if isinstance(x, LoadInput)}
                # feeds only the final power's modulus slot: output machinery
                helper_tail.append(emit(BinOp(n_reg, "mul", loads["p"], loads["q"]), "infect"))
            acc = factors[0].c_reg
            for j in range(1, len(factors)):
                reg = f"infm{j}"
                infection.append(emit(BinOp(reg, "mul", acc, factors[j].c_reg), "infect"))
                acc = reg
            infection.append(emit(ModExp("infs", ins.src, acc, n_reg), "output"))
            idx_map[i] = emit(Ret("infs"), phases[i])
        else:
            idx_map[i] = emit(ins, phases[i])

    tail = {idx_map[i] for i in program.meta.output_tail} | set(infection) | set(helper_tail)
    return out.program(
        program,
        program.name + "-infective",
        verification_checks=(),
        factors=tuple(factors),
        infection_indices=tuple(infection),
        output_tail=tuple(sorted(tail)),
        n_reg=n_reg,
        one_reg=one_reg,
    )


def _canonical_chain(program: Program) -> tuple[int, ModExp]:
    """Verify the product/power shape; return (final power index, its instr)."""
    factors = program.meta.factors
    infection = program.meta.infection_indices
    instrs = program.instrs
    if not infection:
        raise UnrecognizedInfectionShape(
            f"{program.name} does not mark a product/power infection chain"
        )
    if not isinstance(instrs[-1], Ret):
        raise UnrecognizedInfectionShape(f"{program.name} has no final return")
    exp_idx = infection[-1]
    exp_ins = instrs[exp_idx]
    if not isinstance(exp_ins, ModExp) or instrs[-1].src != exp_ins.dst:
        raise UnrecognizedInfectionShape("released value is not the infected power")
    c_regs = [f.c_reg for f in factors]
    muls = infection[:-1]
    if len(muls) != len(factors) - 1:
        raise UnrecognizedInfectionShape("product chain length does not match factor count")
    acc = c_regs[0]
    for j, mi in enumerate(muls):
        mins = instrs[mi]
        if not (
            isinstance(mins, BinOp)
            and mins.op == "mul"
            and mins.mod is None
            and mins.a == acc
            and mins.b == c_regs[j + 1]
        ):
            raise UnrecognizedInfectionShape("product chain is not a left fold over the factors")
        acc = mins.dst
    if exp_ins.exp != acc:
        raise UnrecognizedInfectionShape("power exponent is not the factor product")
    return exp_idx, exp_ins


def to_testbased(program: Program) -> Program:
    """Turn canonical infection back into equality checks.

    Inverse of to_infective up to exact equality. On a hand-written
    infective program the released value becomes the pre-infection base
    register, which may live in a wider ring than the public modulus.
    """
    factors = program.meta.factors
    if not factors:
        raise NotInfective(f"{program.name} records no verification factors")
    _exp_idx, exp_ins = _canonical_chain(program)
    instrs = program.instrs

    replace: dict[int, InfectionFactor] = {}
    drop: set[int] = set(program.meta.infection_indices)
    one_reg = program.meta.one_reg
    for f in factors:
        dins, cins = instrs[f.diff_idx], instrs[f.c_idx]
        if not (
            isinstance(dins, BinOp)
            and dins.op == "sub"
            and dins.a == f.a_reg
            and dins.b == f.b_reg
            and dins.mod == f.mod_reg
        ):
            raise UnrecognizedInfectionShape(f"factor {f.c_reg} difference has an unexpected form")
        if not (
            isinstance(cins, BinOp)
            and cins.op == "add"
            and cins.a == dins.dst
            and cins.dst == f.c_reg
            and (one_reg is None or cins.b == one_reg)
        ):
            raise UnrecognizedInfectionShape(f"factor {f.c_reg} is not difference plus one")
        replace[f.diff_idx] = f
        drop.add(f.diff_idx)
        drop.add(f.c_idx)

    phases = _phases_of(program)
    out = _Listing()
    emit = out.emit
    idx_map: dict[int, int] = {}
    new_checks: list[int] = []
    ret_idx = len(instrs) - 1
    for i, ins in enumerate(instrs):
        if i == ret_idx:
            idx_map[i] = emit(Ret(exp_ins.base), phases[i])
        elif i in replace:
            f = replace[i]
            ci = emit(CheckEq(f.a_reg, f.b_reg, f.mod_reg), phases[i])
            new_checks.append(ci)
            idx_map[i] = ci
        elif i in drop:
            continue
        else:
            idx_map[i] = emit(ins, phases[i])

    # helper registers this module inserted are dropped once they go dead
    read_now = {r for ins in out.instrs for _s, r in reads_of(ins)}
    dead = {
        j
        for j, ins in enumerate(out.instrs)
        if dst_of(ins) in (ONE_RESERVED, N_RESERVED) and dst_of(ins) not in read_now
    }
    if dead:
        shift: dict[int, int] = {}
        kept = _Listing()
        for j, ins in enumerate(out.instrs):
            if j not in dead:
                shift[j] = kept.emit(ins, out.phases[j])
        out = kept
        idx_map = {i: shift[j] for i, j in idx_map.items() if j in shift}
        new_checks = [shift[j] for j in new_checks]

    name = program.name
    if name.endswith("-infective"):
        name = name[: -len("-infective")]
    one_reg = program.meta.one_reg
    if one_reg == ONE_RESERVED:
        # the reserved unit constant is dropped above; point back at a unit
        # constant surviving in the core, if the core carries one
        one_reg = next(
            (ins.dst for ins in out.instrs if isinstance(ins, Const) and ins.value == 1),
            None,
        )
    return out.program(
        program,
        name,
        verification_checks=tuple(new_checks),
        factors=(),
        infection_indices=(),
        output_tail=tuple(sorted(idx_map[i] for i in program.meta.output_tail if i in idx_map)),
        n_reg=None if program.meta.n_reg == N_RESERVED else program.meta.n_reg,
        one_reg=one_reg,
    )


# -------------------------------------------------------------- replication


def _exclusive_slice(program: Program, unit: tuple[int, ...], readers: dict[str, set[int]]) -> list[int]:
    """Instructions whose stored values feed nothing outside this unit.

    Single descending pass: registers are write-once and defined before
    use, so every reader of instruction i sits at a higher index and is
    already classified when i is visited. Input loads and random draws stay
    shared - a replicated draw would draw a different prime and the copies
    would verify different rings.
    """
    sinks = set(unit)
    members: set[int] = set()
    for i in range(min(unit) - 1, -1, -1):
        ins = program.instrs[i]
        dst = dst_of(ins)
        if dst is None or isinstance(ins, (LoadInput, DrawRandomPrime)):
            continue
        rs = readers.get(dst, set())
        if rs and rs <= sinks | members:
            members.add(i)
    return sorted(members)


def harden(program: Program, copies: int) -> Program:
    """Replicate each verification unit and its exclusive feeding slice.

    copies is the total instance count per unit; 1 returns the program
    unchanged. Test-based units are single checks; infective units are
    factor groups, and the product chain is rebuilt over every copy so a
    single erased factor still leaves a detecting one in the exponent.
    """
    if copies < 1:
        raise ValueError("copies must be at least 1")
    if copies == 1:
        return program
    instrs = program.instrs
    check_idxs = [i for i, ins in enumerate(instrs) if isinstance(ins, CheckEq)]
    factors = program.meta.factors
    if check_idxs:
        units: list[tuple[tuple[InfectionFactor, ...], tuple[int, ...]]] = [
            ((), (i,)) for i in check_idxs
        ]
    elif factors:
        grouped: dict[int, list[InfectionFactor]] = {}
        for f in factors:
            grouped.setdefault(f.group, []).append(f)
        units = [
            (tuple(fs), tuple(sorted({i for f in fs for i in (f.diff_idx, f.c_idx)})))
            for _g, fs in sorted(grouped.items())
        ]
        _canonical_chain(program)  # chain rebuild below needs the shape
    else:
        raise NoVerifications(f"{program.name} verifies nothing to replicate")

    readers: dict[str, set[int]] = {}
    for i, ins in enumerate(instrs):
        for _s, r in reads_of(ins):
            readers.setdefault(r, set()).add(i)

    by_anchor = {unit[-1]: (ufs, unit) for ufs, unit in units}
    phases = _phases_of(program)
    out = _Listing()
    emit = out.emit
    idx_map: dict[int, int] = {}
    copy_factors: dict[int, list[InfectionFactor]] = {}  # original factor c_idx -> copies
    for i, ins in enumerate(instrs):
        idx_map[i] = emit(ins, phases[i])
        if i not in by_anchor:
            continue
        ufs, unit = by_anchor[i]
        block = _exclusive_slice(program, unit, readers) + list(unit)
        block.sort()
        for t in range(1, copies):
            ren = {
                dst_of(instrs[j]): f"{dst_of(instrs[j])}h{t}"
                for j in block
                if dst_of(instrs[j]) is not None
            }
            placed: dict[int, int] = {}
            for j in block:
                placed[j] = emit(rename_registers(instrs[j], ren), phases[j])
            for f in ufs:
                copy_factors.setdefault(f.c_idx, []).append(
                    InfectionFactor(
                        ren[f.c_reg],
                        ren.get(f.a_reg, f.a_reg),
                        ren.get(f.b_reg, f.b_reg),
                        None if f.mod_reg is None else ren.get(f.mod_reg, f.mod_reg),
                        placed[f.diff_idx],
                        placed[f.c_idx],
                        f.group,
                    )
                )

    name = f"{program.name}-h{copies}"
    if check_idxs:
        return out.program(
            program,
            name,
            verification_checks=tuple(
                j for j, ins in enumerate(out.instrs) if isinstance(ins, CheckEq)
            ),
            factors=(),
            infection_indices=(),
            output_tail=tuple(sorted(idx_map[i] for i in program.meta.output_tail)),
        )

    # infective: relocate factor records, then rebuild the chain over all copies
    new_factors: list[InfectionFactor] = []
    for f in factors:
        new_factors.append(replace(f, diff_idx=idx_map[f.diff_idx], c_idx=idx_map[f.c_idx]))
        new_factors.extend(copy_factors.get(f.c_idx, []))
    old_chain = {idx_map[i] for i in program.meta.infection_indices}
    exp_ins = program.instrs[program.meta.infection_indices[-1]]
    existing = {dst_of(x) for x in out.instrs if dst_of(x) is not None}

    def fresh(stem: str) -> str:
        r = stem
        while r in existing:
            r += "x"
        existing.add(r)
        return r

    out2 = _Listing()
    emit2 = out2.emit
    map2: dict[int, int] = {}
    new_infection: list[int] = []
    for j, ins in enumerate(out.instrs):
        if j in old_chain:
            continue
        if isinstance(ins, Ret):
            regs = [f.c_reg for f in new_factors]
            acc = regs[0]
            for k in range(1, len(regs)):
                reg = fresh(f"hm{k}")
                new_infection.append(emit2(BinOp(reg, "mul", acc, regs[k]), "infect"))
                acc = reg
            sig = fresh("hs")
            new_infection.append(emit2(ModExp(sig, exp_ins.base, acc, exp_ins.mod), "output"))
            map2[j] = emit2(Ret(sig), out.phases[j])
        else:
            map2[j] = emit2(ins, out.phases[j])

    tail = {
        map2[idx_map[i]]
        for i in program.meta.output_tail
        if idx_map[i] in map2
    } | set(new_infection)
    return out2.program(
        program,
        name,
        verification_checks=(),
        factors=tuple(
            replace(f, diff_idx=map2[f.diff_idx], c_idx=map2[f.c_idx]) for f in new_factors
        ),
        infection_indices=tuple(new_infection),
        output_tail=tuple(sorted(tail)),
    )


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
