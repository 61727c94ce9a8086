"""Fault campaigns: plan enumeration, execution, and attack bookkeeping.

A campaign takes one built program and one key, enumerates fault plans of
the requested order over the program's sites, executes each plan on each
message, and scores the outcomes with the gcd oracle: a released value v
with gcd(N, |S - v|) equal to p or q is a break. Per-site tallies feed a
classifier that separates structural breaks (the scheme's algebra leaks a
factor for essentially any replacement) from subring collisions (the
replacement happened to agree with the checksum residue, a ~1/r event).

Governing domains come from the fault-free baseline of the first message:
a replacement at a site ranges over the modulus that reduces the value
stored there, or over a bit-length envelope when nothing reduces it. Small
domains are swept exhaustively and classified by exact fraction; large
ones are sampled and classified by replaying each hit under two alternate
seeds, which re-draws the checksum primes - a collision evaporates, a real
break does not.

Every (table row, value) of a campaign has an integer action id
(ActionIds): the row's rank shifted left, or'd with the value's index, so
ids ascend in plan sort order and decode by shift and mask. A plan of
order 2 and above is a tuple of ids: it is drawn, deduplicated and sorted
as ints, and the campaign decodes its ids where a batch gathers its faults.
FaultActions are built only for the successes the replay pass probes.

Faulted runs go through circuit.FaultRunner, which replays faults against
the fault-free baseline of their message; circuit.execute stays the
reference that runs the baselines and judges skip-subsumption plans. A
campaign runs its plans in batches of at most _BATCH, one lane per plan
and one FaultRunner.run_batch pass per batch and message: the plan list at
order 2 and above; at order 1 each zero and randomize row's values, then
the skip rows. A batch's per-index fault lists are gathered once for all
messages, and each pass is scored as soon as it returns, as one column:
gcd(N, v - S) over the lanes' released values, so only a lane that breaks
is visited on its own. At order 1 a read fault whose register has one
reader, naming it once, is the same fault as a write fault on that
register's writer: such a read row, with the write row's values, is not
run, and takes the write row's counts and successes under its own site.
The replay probes run one plan at a time through FaultRunner.run. Runners
are kept by the program under (key, message, seed), so each baseline runs
once: the campaign's messages, the site-action table and every replay
probe share them. Before any fault
is injected, each message's fault-free output must be its CRT signature.

Everything is deterministic in (spec, program): sampling is seeded per
site and runs are tallied in plan order, then message order.
CampaignSpec.workers is accepted for compatibility but runs nothing in
parallel, so reports are byte-identical for any worker setting.
"""

from __future__ import annotations

import json
import math
import random
import zlib
from collections import defaultdict
from dataclasses import asdict, dataclass, field, replace
from itertools import combinations, product, repeat
from operator import itemgetter, sub

from . import modmath
from .circuit import (
    CompiledProgram,
    Crash,
    ErrorOut,
    FaultAction,
    FaultKind,
    FaultPlan,
    FaultRunner,
    FaultSite,
    LoadInput,
    Program,
    ReadOf,
    Ret,
    SkipRange,
    WriteOf,
    dst_of,
    enumerate_sites,
    execute,
    modulus_reg,
    program_digest,
    reads_of,
    same_result,
    skip_fill_value,
)
from .countermeasures import build, program_inputs
from .keytools import CrtKey, check_crt_key

KIND_NAMES = ("zero", "randomize", "skip")
_ALT_SEED_STEPS = (1_000_003, 2_000_003, 3_000_017, 4_000_037)
_REPLAY_CAP = 8
_SUCCESSES_PER_ROW = 5  # successes to_json lists per (first site, kind)

# perfbench's tracer wraps faultengine.bellcore_extract by this name; the
# tally and score_outcome read the gcd through _gcd_leak, not through it
bellcore_extract = modmath.bellcore_extract

CLASS_NONE = "none"
CLASS_STRUCTURAL = "structural-break"
CLASS_COLLISION = "subring-collision"


@dataclass(frozen=True)
class CampaignSpec:
    """One campaign configuration. Give either algo or a prebuilt program.

    A prebuilt program must pass circuit.validate. The key must pass
    keytools.check_crt_key. Every message must be a unit mod N = p*q
    (0 < M < N and gcd(M, N) = 1), the default messages 2, 3 and N-2
    included: a message sharing a factor with N leaks that factor on its
    own, so faulted outputs would count as breaks the scheme did not cause,
    and one outside (0, N) aliases another message. samples_per_site must
    be at least 1, or sampled randomize rows would run no value.
    workers is checked but not used: campaigns run on one thread, and the
    report does not depend on it.
    """

    key: CrtKey
    algo: str | None = None
    program: Program | None = None
    messages: tuple[int, ...] = ()
    order: int = 1
    kinds: tuple[str, ...] = ("zero", "randomize", "skip")
    max_skip_len: int = 2
    exhaustive_threshold: int = 16384
    samples_per_site: int = 64
    seed: int = 42
    r_bits: int = 8
    build_seed: int = 0
    plan_limit: int = 10000
    workers: int = 1

    def __post_init__(self):
        if (self.algo is None) == (self.program is None):
            raise ValueError("give exactly one of algo or program")
        if self.order < 1:
            raise ValueError("order must be at least 1")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.samples_per_site < 1:
            raise ValueError("samples_per_site < 1 gives sampled sites no fault plans")
        for k in self.kinds:
            if k not in KIND_NAMES:
                raise ValueError(f"unknown fault kind {k!r}")
        check_crt_key(self.key)
        n = self.key.p * self.key.q
        for m in _messages_of(self):
            if not 0 < m < n or math.gcd(m, n) != 1:
                raise ValueError(
                    f"message {m} is not a unit mod N={n}: need 0 < M < N and gcd(M, N) = 1"
                )


@dataclass
class SiteRow:
    """Aggregated outcomes of all plans touching one (site, kind) pair."""

    site: str
    kind: str
    phase: str
    attempts: int = 0
    successes: int = 0
    factor_p: int = 0
    factor_q: int = 0
    no_output: int = 0
    silent: int = 0
    exhaustive: bool = False
    domain: int | None = None
    persistent: int | None = None  # replayed hits surviving both alternate seeds
    classification: str = CLASS_NONE

    @property
    def fraction(self) -> float:
        return self.successes / self.attempts if self.attempts else 0.0


# a SiteRow as one report row: to_json's keys and the CSV columns, in order
_COLUMNS = (
    "site", "kind", "phase", "attempts", "successes", "factor_p", "factor_q",
    "no_output", "silent", "fraction", "exhaustive", "domain", "persistent", "classification",
)


def _json_cell(v: object) -> object:
    return round(v, 8) if isinstance(v, float) else v


def _csv_cell(v: object) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return f"{v:.8f}"
    return str(v)


@dataclass(frozen=True)
class AttackSuccess:
    """One breaking plan: the released value leaked a factor of N."""

    message: int
    actions: tuple[tuple[str, str, int | None], ...]  # (site key, kind, value)
    signature: int
    factor: int
    side: str  # "p" | "q"
    persistent: bool | None  # None when the row is classified by exact fraction


@dataclass
class CampaignReport:
    name: str
    digest: str
    spec: dict
    messages: tuple[int, ...]
    baselines: dict[int, int]
    draws: dict[int, tuple[tuple[int, int], ...]]
    r_min: int | None
    plans_total: int
    sampled_plans: bool
    rows: list[SiteRow]
    successes: list[AttackSuccess]
    totals: dict = field(default_factory=dict)

    @property
    def summary_line(self) -> str:
        return (
            f"algo={self.name} order={self.totals['order']} plans={self.plans_total} "
            f"breaks={self.totals['structural_rows']} collisions={self.totals['collision_rows']}"
        )

    def structural_rows(self) -> list[SiteRow]:
        return [r for r in self.rows if r.classification == CLASS_STRUCTURAL]

    def persistent_successes(self, include_rng: bool = True) -> list[AttackSuccess]:
        """Successes that survived the replay probe.

        With include_rng False, plans touching a randomness-draw site are
        left out: pinning the drawn prime turns the scheme into its
        derandomized variant, which says nothing about the scheme proper.
        """
        phases = {r.site: r.phase for r in self.rows}
        out = [s for s in self.successes if s.persistent]
        if not include_rng:
            out = [s for s in out if not _touches_rng(phases, s)]
        return out

    def to_json(self) -> str:
        capped: list[dict] = []
        seen: dict[tuple[str, str], int] = {}
        for s in self.successes:
            head = (s.actions[0][0], s.actions[0][1])
            seen[head] = seen.get(head, 0) + 1
            if seen[head] <= _SUCCESSES_PER_ROW:
                capped.append(asdict(s))
        doc = {
            "name": self.name,
            "digest": self.digest,
            "spec": self.spec,
            "messages": list(self.messages),
            "baselines": {str(m): v for m, v in self.baselines.items()},
            "draws": {str(m): [list(d) for d in ds] for m, ds in self.draws.items()},
            "r_min": self.r_min,
            "plans_total": self.plans_total,
            "sampled_plans": self.sampled_plans,
            "rows": [{c: _json_cell(getattr(r, c)) for c in _COLUMNS} for r in self.rows],
            "successes_total": len(self.successes),
            "successes": capped,
            "totals": self.totals,
            "line": self.summary_line,
        }
        return json.dumps(doc, sort_keys=True, indent=2)

    def to_csv(self) -> str:
        lines = [",".join(_COLUMNS)]
        lines += [",".join(_csv_cell(getattr(r, c)) for c in _COLUMNS) for r in self.rows]
        return "\n".join(lines) + "\n"


# -------------------------------------------------------------- site algebra


def _bitlen_domain(nominal: int) -> int:
    return max(8, 1 << (max(nominal, 1).bit_length() + 2))


def site_domains(program: Program, baseline_regs: dict[str, int]) -> dict[FaultSite, tuple[int, int]]:
    """Map each data site to (governing domain, nominal value).

    A write is bounded by the modulus reducing the instruction.  A read is
    bounded by the modulus of the instruction that defined the fetched
    register, or failing that by the modulus of the instruction doing the
    reading: a raw value fetched into a reduced computation only matters
    through its residue in that ring.  A value neither end reduces gets a
    bit-length envelope over its baseline.
    """
    defs: dict[str, int] = {}
    for i, ins in enumerate(program.instrs):
        d = dst_of(ins)
        if d is not None:
            defs[d] = i
    out: dict[FaultSite, tuple[int, int]] = {}

    def mod_of(idx: int) -> int | None:
        mreg = modulus_reg(program.instrs[idx])
        if mreg is not None:
            m = baseline_regs.get(mreg, 0)
            if m >= 2:
                return m
        return None

    for idx, ins in enumerate(program.instrs):
        d = dst_of(ins)
        if d is not None and not isinstance(ins, LoadInput):
            nominal = baseline_regs[d]
            dom = mod_of(idx) or _bitlen_domain(nominal)
            out[WriteOf(idx)] = (dom, nominal)
        mreg = modulus_reg(ins)
        for slot, reg in reads_of(ins):
            nominal = baseline_regs[reg]
            src = defs.get(reg)
            dom = mod_of(src) if src is not None else None
            if dom is None and reg != mreg:
                dom = mod_of(idx)
            out[ReadOf(idx, slot)] = (dom or _bitlen_domain(nominal), nominal)
    return out


def site_phase(program: Program, site: FaultSite) -> str:
    ph = program.meta.phases
    if not ph:
        return "main"
    if isinstance(site, SkipRange):
        return ph[site.first]
    return ph[site.index]


def _site_sample_rng(spec: CampaignSpec, site_key: str) -> random.Random:
    return random.Random(
        (spec.seed * 0x51ED2706 + zlib.crc32(site_key.encode())) & 0xFFFFFFFFFFFF
    )


@dataclass(frozen=True)
class SiteActions:
    """All actions a campaign may take at one site under one kind."""

    site: FaultSite
    kind: FaultKind
    values: tuple[int | None, ...]  # None for zero and skip
    exhaustive: bool
    domain: int | None


def site_action_table(program: Program, spec: CampaignSpec) -> list[SiteActions]:
    """Deterministic per-site action lists for the spec's kinds."""
    runner = _runner(program, spec.key, _messages_of(spec)[0], spec.seed)
    domains = site_domains(program, runner.baseline.regs())
    want_data = "zero" in spec.kinds or "randomize" in spec.kinds
    want_skip = "skip" in spec.kinds
    sites = []
    if want_data or want_skip:
        sites = [
            s
            for s in enumerate_sites(program, max_skip_len=spec.max_skip_len if want_skip else 0)
            if isinstance(s, SkipRange) or want_data
        ]
    table: list[SiteActions] = []
    for site in sites:
        if isinstance(site, SkipRange):
            table.append(SiteActions(site, FaultKind.SKIP, (None,), True, None))
            continue
        dom, nominal = domains[site]
        if "zero" in spec.kinds:
            table.append(SiteActions(site, FaultKind.ZERO, (None,), True, dom))
        if "randomize" in spec.kinds:
            if dom <= spec.exhaustive_threshold:
                if 0 <= nominal < dom:
                    vals = (*range(nominal), *range(nominal + 1, dom))
                else:
                    vals = tuple(range(dom))
                table.append(SiteActions(site, FaultKind.RANDOMIZE, vals, True, dom))
            else:
                rng = _site_sample_rng(spec, site.key(program))
                picked: set[int] = set()
                while len(picked) < min(spec.samples_per_site, dom - 1):
                    v = rng.randrange(dom)
                    if v != nominal:
                        picked.add(v)
                table.append(
                    SiteActions(site, FaultKind.RANDOMIZE, tuple(sorted(picked)), False, dom)
                )
    return table


def _messages_of(spec: CampaignSpec) -> tuple[int, ...]:
    if spec.messages:
        return spec.messages
    n = spec.key.p * spec.key.q
    return (2, 3, n - 2)


# ------------------------------------------------------------ plan universes

# a plan over ActionIds: one action id per faulted site, sites in table order
IdPlan = tuple[int, ...]


def _site_order(site: FaultSite) -> tuple[int, int, int]:
    """Where a site sorts among actions: writes, reads, then skip windows."""
    if isinstance(site, WriteOf):
        return (0, site.index, 0)
    if isinstance(site, ReadOf):
        return (1, site.index, site.slot)
    return (2, site.first, site.last)


class ActionIds:
    """Integer ids for a campaign's actions, one per (table row, value).

    Rows are ranked by site (writes by index, reads by index and slot, skip
    windows by first then last index), then by kind name (randomize, skip,
    zero); by_id lists the table rows in rank order. Value k of the row
    ranked i has the id i << shift | k, shift being the bit length of the
    longest row's value count, so ids ascend by rank and then by value and
    tuples of ids sort as the actions they stand for. An id decodes by
    arithmetic: its row is by_id[a >> shift] and its value index a & mask.
    Row r holds the consecutive ids from base[r]; ids are not dense. Sites
    are numbered in order of first appearance in the table; sizes holds
    their action counts, a site's actions counting through its rows in
    table order. A site has at most two rows (zero and randomize, or one
    skip row), so spans gives its action k: with spans[g] = (n0, b0, off),
    the id is b0 + k in the first row (k < n0) and off + k in the second.
    """

    def __init__(self, table: list[SiteActions]):
        self.table = table
        self.by_id = sorted(range(len(table)), key=lambda r: (_site_order(table[r].site), table[r].kind.value))
        self.shift = max((len(t.values) for t in table), default=0).bit_length()
        self.mask = (1 << self.shift) - 1
        self.base = [0] * len(table)
        for rank, r in enumerate(self.by_id):
            self.base[r] = rank << self.shift
        groups: dict[FaultSite, list[tuple[int, int]]] = {}
        for r, t in enumerate(table):
            groups.setdefault(t.site, []).append((len(t.values), self.base[r]))
        self.sizes = [sum(n for n, _b in g) for g in groups.values()]
        self.spans = []
        for g in groups.values():
            assert len(g) <= 2, "a site has at most a zero and a randomize row"
            (n0, b0), *second = g
            self.spans.append((n0, b0, second[0][1] - n0 if second else b0))

    def nth(self, group: int, k: int) -> int:
        """Id of action k of one site, counting through its rows in table order."""
        if k >= self.sizes[group]:
            raise IndexError(k)
        n0, b0, off = self.spans[group]
        return b0 + k if k < n0 else off + k

    def fault_plan(self, plan: IdPlan) -> FaultPlan:
        """The FaultAction tuple an id plan stands for."""
        acts = []
        for a in plan:
            t = self.table[self.by_id[a >> self.shift]]
            acts.append(FaultAction(t.site, t.kind, t.values[a & self.mask]))
        return tuple(acts)


def plan_space_size(table: list[SiteActions], order: int) -> int:
    """Number of plans faulting `order` distinct sites: elementary symmetric sum e_k."""
    e = [0] * (order + 1)
    e[0] = 1
    for n in ActionIds(table).sizes:
        for k in range(order, 0, -1):
            e[k] += e[k - 1] * n
    return e[order]


def build_plans(
    program: Program, spec: CampaignSpec, table: list[SiteActions]
) -> tuple[list[IdPlan] | None, bool, ActionIds]:
    """The campaign's id plans, whether they had to be sampled, and the
    ActionIds that decode them.

    Order 1 builds no list (None): its plans are the table's actions, one
    each, which run_campaign runs row by row. Higher orders take every
    combination of distinct sites when the exact count fits plan_limit,
    combinations in table order with the first site's action varying
    fastest; otherwise plan_limit distinct draws (site subset uniform, one
    of the site's actions under any kind uniform), or as many as 50 *
    plan_limit draws find, sorted. No plan faults a site twice. Plans are
    tuples of ints, so drawing, deduplicating and sorting never build a
    FaultAction; the campaign decodes ids by shift and mask, and
    ActionIds.fault_plan builds FaultActions only for the successes the
    replay pass probes.

    A draw is rng.sample(range(sites), order), sorted, then one
    rng.randrange(size) per picked site, decoded through ActionIds.spans.
    The loop makes exactly the rng.getrandbits calls those two methods
    make on CPython (sample's pool or set branch, then _randbelow's
    redraws), without their layers; test_faultengine's differential test
    against random.Random on the running interpreter guards the sequence.
    """
    ids = ActionIds(table)
    order, limit = spec.order, spec.plan_limit
    if order == 1:
        return None, False, ids
    sizes = ids.sizes
    if plan_space_size(table, order) <= limit:
        per_site = [[ids.nth(g, k) for k in range(n)] for g, n in enumerate(sizes)]
        plans = [
            plan[::-1]
            for combo in combinations(per_site, order)
            for plan in product(*combo[::-1])
        ]
        return plans, False, ids
    rng = random.Random((spec.seed * 0x9E3779B1 + order) & 0xFFFFFFFFFFFF)
    bits = rng.getrandbits
    n_sites = len(sizes)
    # sample swap-removes from a pool when a list of n_sites is smaller
    # than a set of order picks, and redraws picked sites otherwise
    setsize = 21 + (4 ** math.ceil(math.log(order * 3, 4)) if order > 5 else 0)
    pooled = n_sites <= setsize
    site_bits = n_sites.bit_length()
    # per site: (action count, its bit length, n0, b0, off of ActionIds.spans)
    draws = [(n, n.bit_length(), *span) for n, span in zip(sizes, ids.spans)]
    plans_set: set[IdPlan] = set()
    guard = 0
    while len(plans_set) < limit:
        guard += 1
        if guard > limit * 50:
            # sites are drawn uniformly, then one of their actions, so a plan
            # on a site with many actions is rare: a limit near the space's
            # size may not be reached
            break
        if pooled:
            pool = list(range(n_sites))
            picks = []
            for m in range(n_sites, n_sites - order, -1):
                j = bits(m.bit_length())
                while j >= m:
                    j = bits(m.bit_length())
                picks.append(pool[j])
                pool[j] = pool[m - 1]
            picks.sort()
        else:
            picked: set[int] = set()
            while len(picked) < order:
                j = bits(site_bits)
                if j < n_sites:
                    picked.add(j)
            picks = sorted(picked)
        plan = []
        for g in picks:
            n, n_bits, n0, b0, off = draws[g]
            k = bits(n_bits)
            while k >= n:
                k = bits(n_bits)
            plan.append(b0 + k if k < n0 else off + k)
        plans_set.add(tuple(plan))
    return sorted(plans_set), True, ids


# ----------------------------------------------------------------- scoring


def _gcd_leak(p: int, q: int, g: int) -> tuple[int | None, str | None]:
    """(factor, side) the gcd oracle reads from g = gcd(N, v - S), N = p*q:
    p or q when g is that factor, else (None, None), as for g = N (v = S
    mod N) and g = 1. modmath.bellcore_extract is the reference."""
    if g == p:
        return p, "p"
    if g == q:
        return q, "q"
    return None, None


def score_outcome(n: int, p: int, q: int, baseline_sig: int, result) -> tuple[str, int | None, str | None]:
    """Classify one faulted outcome: (tally, factor, side)."""
    if isinstance(result, (ErrorOut, Crash)):
        return "no_output", None, None
    factor, side = _gcd_leak(p, q, math.gcd(n, result.value - baseline_sig))
    return ("success" if side else "silent"), factor, side


def _runner(program: Program, key: CrtKey, message: int, seed: int) -> FaultRunner:
    """program's runner on one message, kept under (key, message, seed), so
    program_inputs runs once per new key and message."""
    return program.runner_for((key, message), seed, lambda: program_inputs(program, key, message))


def replay_plan(
    program: Program, key: CrtKey, message: int, plan: FaultPlan, seed: int
) -> tuple[object, bool, int | None]:
    """Run one plan; return (result, broke, factor). Baseline uses the same seed."""
    runner = _runner(program, key, message, seed)
    result = runner.run(plan)
    n = key.p * key.q
    tally, factor, _side = score_outcome(n, key.p, key.q, runner.signature, result)
    return result, tally == "success", factor


def _alt_messages(n: int, message: int) -> list[int]:
    """The first two candidate messages distinct from `message` mod n."""
    alts: list[int] = []
    m = 2
    while len(alts) < 2:
        if m % n != message % n and math.gcd(m, n) == 1:
            alts.append(m)
        m += 1
    return alts


def _redrawn_plan(
    plan: FaultPlan,
    redraw: dict[FaultSite, tuple[int, int]] | None,
    seed: int,
    round_no: int,
) -> FaultPlan:
    if not redraw:
        return plan
    acts = []
    for a in plan:
        if a.kind is FaultKind.RANDOMIZE and a.site in redraw:
            dom, nominal = redraw[a.site]
            rng = random.Random(
                (seed * 0x9E3779B1 + zlib.crc32(f"{a.site!r}|{round_no}".encode()))
                & 0xFFFFFFFFFFFF
            )
            v = rng.randrange(dom)
            while v == nominal:
                v = rng.randrange(dom)
            a = FaultAction(a.site, a.kind, v)
        acts.append(a)
    return tuple(acts)


def plan_persists(
    program: Program,
    key: CrtKey,
    message: int,
    plan: FaultPlan,
    seed: int,
    redraw: dict[FaultSite, tuple[int, int]] | None = None,
) -> bool:
    """True when the plan still breaks with everything incidental varied.

    Each probe round moves the execution seed (the checksum primes get
    re-drawn, so a collision in a drawn subring loses its ring), moves the
    message (a hit that needed some residue to land on a magic value for
    this particular input dies), and, when `redraw` maps the plan's
    randomize sites to their (domain, nominal), re-draws the injected
    values (a multi-fault hit that needed its random values to agree is
    coordination luck, not a property of the scheme).  A structural break
    exploits the dataflow itself and survives every round.
    """
    alts = _alt_messages(key.p * key.q, message)
    for t, step in enumerate(_ALT_SEED_STEPS):
        plan_t = _redrawn_plan(plan, redraw, seed, t)
        _res, broke, _f = replay_plan(program, key, alts[t % len(alts)], plan_t, seed + step)
        if not broke:
            return False
    return True


def _touches_rng(report_phases: dict[str, str], s: AttackSuccess) -> bool:
    return any(report_phases.get(sk) == "rng" for sk, _kind, _val in s.actions)


# ---------------------------------------------------------------- campaign


def _twin_rows(code: CompiledProgram, table: list[SiteActions]) -> dict[int, int]:
    """Each read row of the table whose order-1 runs are a write row's,
    mapped to that write row.

    ReadOf(j, slot) fetching the register instruction w writes is twin to
    WriteOf(w) of the same kind when j is w's only reader, j's operands,
    avoid-list lookups included, name w once, and both rows have the same
    values: faulting w's write then changes that one operand of j and
    nothing else, to the value the read fault puts there. Writes come
    before reads in the table, so a campaign runs the write row first.
    """
    ops, readers = code.ops, code.readers
    row_of = {(t.site, t.kind): r for r, t in enumerate(table)}
    twins = {}
    for r, t in enumerate(table):
        if t.site.__class__ is ReadOf:
            j = t.site.index
            srcs = ops[j][2]
            w = srcs[t.site.slot]
            wr = row_of.get((WriteOf(w), t.kind))
            if (
                wr is not None
                and wr < r
                and readers[w] == 1 << j
                and srcs.count(w) == 1
                and table[wr].values == t.values
            ):
                twins[r] = wr
    return twins


# plans per FaultRunner.run_batch pass
_BATCH = 256


class _Tally:
    """A campaign's faulted runs and their bookkeeping.

    rows holds one SiteRow per table row, indexed like the table; runs
    holds (message, runner, baseline signature) per message. Plans run in
    batches of _BATCH, one FaultRunner.run_batch pass per batch and
    message, and each pass is scored as it returns, as one column: the
    lanes' released values, an ErrorOut or Crash having none (no output),
    then gcd(N, v - S) of each. A column with neither p nor q in it is
    counted by list counts alone; only a lane that breaks is visited on
    its own. Attempts, no-output and silent runs add into three flat
    per-row int lists, which run writes into rows once, when every plan
    has run: an order-1 row batch adds into its one row, a plan batch into
    the rows of each of its plans. A break is counted on its plan's rows
    and becomes an AttackSuccess, indexed by row, whose id plan is kept
    for the replay pass; successes come in plan order, then message order.
    A plan batch's per-index fault lists are gathered once for all
    messages, each action id decoded by ActionIds' shift and mask where a
    plan uses it.

    At order 1 a read row twin to a write row (_twin_rows) does not run: it
    takes the write row's counts, and its successes in order, relabelled
    with the read row's site and action ids.
    """

    def __init__(self, key: CrtKey, program: Program, ids: ActionIds, runs: list):
        self.key = key
        self.n = key.p * key.q
        self.ids = ids
        self.table = ids.table
        self.code = program.compiled
        self.rows = [
            SiteRow(
                t.site.key(program),
                t.kind.value,
                site_phase(program, t.site),
                exhaustive=t.exhaustive,
                domain=t.domain,
            )
            for t in self.table
        ]
        self.runs = runs
        self.successes: list[AttackSuccess] = []
        self.success_plans: list[IdPlan] = []
        self.row_success_idx: dict[int, list[int]] = {}
        n_rows = len(self.table)
        self._attempts, self._no_output, self._silent = [0] * n_rows, [0] * n_rows, [0] * n_rows
        # (index, read slot or None, skipped indices) per table row: a skip
        # window has index -1 and its indices as the range, a data site its
        # faulted index and an empty range
        self._sites = [
            (-1, None, range(t.site.first, t.site.last + 1))
            if isinstance(t.site, SkipRange)
            else (t.site.index, getattr(t.site, "slot", None), range(0))
            for t in self.table
        ]

    def run(self, plans: list[IdPlan] | None) -> None:
        """Run build_plans' plans in order, in batches of _BATCH. At order 1
        (None) run the table in order instead: each zero and randomize row
        in batches of _BATCH of its values, unless it is a twin read row,
        and the skip rows, one plan each, in batches of _BATCH. Then write
        each row's run counts into rows, which _replay reads."""
        if plans is None:
            twins = _twin_rows(self.code, self.table)
            plans = []
            for r, t in enumerate(self.table):
                if t.kind is FaultKind.SKIP:
                    plans.append((self.ids.base[r],))
                    continue
                self._run_plans(plans)  # the skip rows before this one
                plans = []
                if r in twins:
                    self._copy_row(twins[r], r)
                else:
                    self._run_row(r)
        self._run_plans(plans)
        for row, attempts, none, silent in zip(self.rows, self._attempts, self._no_output, self._silent):
            row.attempts, row.no_output, row.silent = attempts, none, silent

    def _copy_row(self, w: int, r: int) -> None:
        """Give twin read row r the runs of write row w: its counts, and its
        successes in order under r's site and r's action ids."""
        for counts in (self._attempts, self._no_output, self._silent):
            counts[r] = counts[w]
        row, src = self.rows[r], self.rows[w]
        row.successes, row.factor_p, row.factor_q = src.successes, src.factor_p, src.factor_q
        idxs = self.row_success_idx.get(w)
        if not idxs:
            return
        successes, plans = self.successes, self.success_plans
        first, mask = self.ids.base[r], self.ids.mask
        self.row_success_idx[r] = list(range(len(successes), len(successes) + len(idxs)))
        source = plan = None
        for i in idxs:
            s = successes[i]
            if plans[i] is not source:  # w's plan tuples are shared across messages; so are r's
                source, plan = plans[i], (first | (plans[i][0] & mask),)
            actions = ((row.site, row.kind, s.actions[0][2]),)
            successes.append(AttackSuccess(s.message, actions, s.signature, s.factor, s.side, None))
            plans.append(plan)

    def _run_plans(self, plans: list[IdPlan]) -> None:
        """Run plans in batches of _BATCH, counting each on the rows it touches."""
        attempts, no_output, silent_runs = self._attempts, self._no_output, self._silent
        n_runs = len(self.runs)
        for s in range(0, len(plans), _BATCH):
            batch = plans[s : s + _BATCH]
            faults, plan_rows = self._faults(batch)
            columns, none, hits = self._score(faults)
            outs = [n_runs - vs.count(None) for vs in zip(*columns)] if none else [n_runs] * len(batch)
            broke = [0] * len(batch)
            for k, m, v, g in hits:
                broke[k] += 1
                self._success(batch[k], plan_rows[k], m, v, g)
            for touched, out, b in zip(plan_rows, outs, broke):
                for r in touched:
                    attempts[r] += n_runs
                    no_output[r] += n_runs - out
                    silent_runs[r] += out - b

    def _run_row(self, r: int) -> None:
        """Run each value of one zero or randomize row as an order-1 plan,
        _BATCH values per batch, whose faults come from the row rather than
        from decoded ids, and count the batch on the row."""
        index, slot, _window = self._sites[r]
        values = self.table[r].values
        first = self.ids.base[r]
        n_runs = len(self.runs)
        for s in range(0, len(values), _BATCH):
            lanes = list(enumerate(v or 0 for v in values[s : s + _BATCH]))  # zero is randomize to 0
            if slot is None:
                faults = (len(lanes), {index: lanes}, {}, {})
            else:
                faults = (len(lanes), {}, {index: [(k, slot, v) for k, v in lanes]}, {})
            _columns, none, hits = self._score(faults)
            runs = n_runs * len(lanes)
            self._attempts[r] += runs
            self._no_output[r] += none
            self._silent[r] += runs - none - len(hits)
            if hits:
                self._keep_row(r, first + s, hits)

    def _keep_row(self, r: int, first: int, hits: list[tuple[int, int, int, int]]) -> None:
        """Count a row batch's breaks on row r and keep each as an
        AttackSuccess, the batch's lane k being the plan of action first + k."""
        p, q, mask = self.key.p, self.key.q, self.ids.mask
        row, values = self.rows[r], self.table[r].values
        successes, plans = self.successes, self.success_plans
        self.row_success_idx.setdefault(r, []).extend(range(len(successes), len(successes) + len(hits)))
        on_p, lane, plan = 0, -1, None
        for k, m, v, g in hits:
            if k != lane:  # a lane's breaks on every message share one plan tuple
                lane, plan = k, (first + k,)
            factor, side = _gcd_leak(p, q, g)
            on_p += factor == p
            actions = ((row.site, row.kind, values[plan[0] & mask]),)
            successes.append(AttackSuccess(m, actions, v, factor, side, None))
            plans.append(plan)
        row.successes += len(hits)
        row.factor_p += on_p
        row.factor_q += len(hits) - on_p

    def _score(self, faults: tuple) -> tuple[list[list], int, list[tuple[int, int, int, int]]]:
        """Run one batch, faults being run_batch's arguments, on every
        message, and score each pass as a column: (columns, none, hits).
        columns[i][k] is the value lane k released on message i, None when
        it released none (an ErrorOut or Crash); none counts those runs.
        hits holds (lane, message, released value, gcd) per run whose value
        leaks a factor, in lane order, then message order; every other run
        with output is silent. A column whose values are all the signature
        or None needs no gcd."""
        n, p, q = self.n, self.key.p, self.key.q
        columns, none, hits = [], 0, []
        for m, runner, sig in self.runs:
            results = runner.run_batch(*faults)
            values = list(map(getattr, results, repeat("value"), repeat(None)))
            columns.append(values)
            ended = values.count(None)
            none += ended
            if ended + values.count(sig) == len(values):
                continue
            if ended:  # no output scores as the signature, so gcd N: no break
                values = list(map(getattr, results, repeat("value"), repeat(sig)))
            gs = list(map(math.gcd, repeat(n), map(sub, values, repeat(sig))))
            if gs.count(p) + gs.count(q):
                hits += [(k, m, values[k], g) for k, g in enumerate(gs) if g == p or g == q]
        hits.sort(key=itemgetter(0))  # stable: messages stay in order within a lane
        return columns, none, hits

    def _faults(self, batch: list[IdPlan]) -> tuple[tuple, list[list[int]]]:
        """run_batch's arguments for a batch, and the rows each plan touches."""
        by_id, shift, mask = self.ids.by_id, self.ids.shift, self.ids.mask
        sites, table = self._sites, self.table
        writes, reads, skips = defaultdict(list), defaultdict(list), defaultdict(list)
        plan_rows = []
        for lane, plan in enumerate(batch):
            rows = []
            for a in plan:
                r = by_id[a >> shift]
                rows.append(r)
                i, slot, window = sites[r]
                if window:
                    for j in window:
                        skips[j].append(lane)
                    continue
                v = table[r].values[a & mask] or 0  # zero is randomize to 0
                if slot is None:
                    writes[i].append((lane, v))
                else:
                    reads[i].append((lane, slot, v))
            plan_rows.append(rows)
        return (len(batch), writes, reads, skips), plan_rows

    def _success(self, plan: IdPlan, touched: list[int], m: int, v: int, g: int) -> None:
        """Count the break of plan on message m, which released v with
        gcd(N, v - S) = g, on the plan's rows, and keep it as an
        AttackSuccess."""
        factor, side = _gcd_leak(self.key.p, self.key.q, g)
        rows, table, mask = self.rows, self.table, self.ids.mask
        idx = len(self.successes)
        for r in touched:
            row = rows[r]
            row.successes += 1
            if side == "p":
                row.factor_p += 1
            else:
                row.factor_q += 1
            self.row_success_idx.setdefault(r, []).append(idx)
        actions = tuple(
            [(rows[r].site, rows[r].kind, table[r].values[a & mask]) for r, a in zip(touched, plan)]
        )
        self.successes.append(AttackSuccess(m, actions, v, factor, side, None))
        self.success_plans.append(plan)


def _resolve_program(spec: CampaignSpec) -> Program:
    if spec.program is not None:
        return spec.program
    return build(spec.algo, spec.key, r_bits=spec.r_bits, build_seed=spec.build_seed)


def run_campaign(spec: CampaignSpec) -> CampaignReport:
    """Run every plan of the spec on every message.

    The stages, in order: fault-free baselines, site-action table, plans,
    faulted runs, replay probes, classification, report.
    ValueError if there are no plans, or if a fault-free run does not
    release the message's CRT signature.
    """
    program = _resolve_program(spec)
    runs = _signed_baselines(program, spec)
    table = site_action_table(program, spec)
    plans, sampled, ids, plans_total = _plans(program, spec, table)
    tally = _Tally(spec.key, program, ids, runs)
    tally.run(plans)
    first_regs = runs[0][1].baseline.regs()
    r_min = min(first_regs[r] for r in program.meta.r_regs) if program.meta.r_regs else None
    bound = (2 / r_min) if r_min else None
    _replay(tally, program, spec, bound, first_regs)
    rows = _classify_rows(tally.rows, bound)
    return _report(program, spec, runs, r_min, plans_total, sampled, rows, tally.successes)


def _signed_baselines(program: Program, spec: CampaignSpec) -> list[tuple[int, FaultRunner, int]]:
    """(message, runner, signature) per message, each signature checked."""
    key = spec.key
    runs = []
    for m in _messages_of(spec):
        runner = _runner(program, key, m, spec.seed)
        s = runner.signature
        if s % key.p != pow(m, key.dp, key.p) or s % key.q != pow(m, key.dq, key.q):
            # every fault would be scored against a value that is no signature
            raise ValueError(
                f"fault-free run of {program.name} on message {m} releases {s}, "
                "not its CRT signature"
            )
        runs.append((m, runner, s))
    return runs


def _plans(
    program: Program, spec: CampaignSpec, table: list[SiteActions]
) -> tuple[list[IdPlan] | None, bool, ActionIds, int]:
    """build_plans and the number of plans, refusing an empty plan space."""
    plans, sampled, ids = build_plans(program, spec, table)
    total = sum(ids.sizes) if plans is None else len(plans)
    if not total:
        # zero breaks over zero plans would read as "secure"
        raise ValueError(
            f"campaign on {program.name} has no fault plans: widen kinds, "
            "max_skip_len, samples_per_site or plan_limit, or lower the order"
        )
    return plans, sampled, ids, total


def _replay(
    tally: _Tally, program: Program, spec: CampaignSpec, bound: float | None, first_regs: dict[str, int]
) -> None:
    """Probe successes with plan_persists and set each row's persistent count.

    Fraction bands settle most randomize rows outright; the ambiguous
    middle band, the single-shot zero and skip rows, and every multi-fault
    plan get replayed under fresh seeds and messages instead. A persistent
    leak reproduces, so a handful of witnesses per row is enough to find one.
    """
    successes, rows = tally.successes, tally.rows
    need: set[int] = set()
    if spec.order > 1:
        need.update(range(len(successes)))
    else:
        for r, idxs in tally.row_success_idx.items():
            row = rows[r]
            if row.kind in ("zero", "skip"):
                need.update(idxs)
            elif row.fraction < 0.5 and (bound is None or row.fraction > bound):
                need.update(idxs[:_REPLAY_CAP])
    redraw = site_domains(program, first_regs) if spec.order > 1 else None
    for idx in sorted(need):
        s = successes[idx]
        plan = tally.ids.fault_plan(tally.success_plans[idx])
        persistent = plan_persists(program, spec.key, s.message, plan, spec.seed, redraw=redraw)
        successes[idx] = replace(s, persistent=persistent)
    for r, idxs in tally.row_success_idx.items():
        replayed = [successes[i].persistent for i in idxs if successes[i].persistent is not None]
        if replayed:
            rows[r].persistent = sum(replayed)


def _classify_rows(rows: list[SiteRow], bound: float | None) -> list[SiteRow]:
    """The rows some plan touched, sorted by (site, kind), each classified;
    the rest (most of them at order >= 2) are not reported."""
    ordered = sorted((r for r in rows if r.attempts), key=lambda r: (r.site, r.kind))
    for row in ordered:
        row.classification = _classify(row, bound)
    return ordered


def _report(
    program: Program,
    spec: CampaignSpec,
    runs: list[tuple[int, FaultRunner, int]],
    r_min: int | None,
    plans_total: int,
    sampled: bool,
    rows: list[SiteRow],
    successes: list[AttackSuccess],
) -> CampaignReport:
    key = spec.key
    totals = {
        "order": spec.order,
        "attempts": sum(r.attempts for r in rows),
        "successes_total": len(successes),
        "structural_rows": sum(1 for r in rows if r.classification == CLASS_STRUCTURAL),
        "collision_rows": sum(1 for r in rows if r.classification == CLASS_COLLISION),
        "persistent_successes": sum(1 for s in successes if s.persistent),
    }
    spec_echo = {
        "algo": spec.algo,
        "order": spec.order,
        "kinds": list(spec.kinds),
        "max_skip_len": spec.max_skip_len,
        "exhaustive_threshold": spec.exhaustive_threshold,
        "samples_per_site": spec.samples_per_site,
        "seed": spec.seed,
        "r_bits": spec.r_bits,
        "build_seed": spec.build_seed,
        "plan_limit": spec.plan_limit,
        "p": str(key.p),
        "q": str(key.q),
    }
    return CampaignReport(
        name=program.name,
        digest=program_digest(program),
        spec=spec_echo,
        messages=tuple(m for m, _r, _s in runs),
        baselines={m: s for m, _r, s in runs},
        draws={m: r.baseline.draws for m, r, _s in runs},
        r_min=r_min,
        plans_total=plans_total,
        sampled_plans=sampled,
        rows=rows,
        successes=successes,
        totals=totals,
    )


def _classify(row: SiteRow, bound: float | None) -> str:
    """Band a row's success fraction, falling back to replay evidence.

    Randomize rows carry a rate: at or above one half the site breaks for
    most replacement values, which no drawn-ring collision can explain;
    at or below the collision bound the rate is what stray agreement in a
    checksum ring produces on its own.  Between the two, and for zero and
    skip rows whose single attempt carries no rate at all, the replayed
    witnesses decide: a leak that survives fresh seeds and fresh messages
    is structural, one that dies with them was a collision.
    """
    if row.successes == 0:
        return CLASS_NONE
    if row.kind == "randomize":
        f = row.fraction
        if f >= 0.5:
            return CLASS_STRUCTURAL
        if bound is not None and f <= bound:
            return CLASS_COLLISION
    if row.persistent == 0:
        return CLASS_COLLISION
    return CLASS_STRUCTURAL


# --------------------------------------------------- skip-fault subsumption


@dataclass(frozen=True)
class SkipWitness:
    window: tuple[int, int]
    witness: FaultPlan
    matched: bool


def check_skip_subsumption(
    program: Program,
    key: CrtKey,
    max_skip_len: int = 2,
    message: int = 2,
    seed: int = 42,
) -> list[SkipWitness]:
    """Build, per skip window, a data-fault plan and check that it gives the
    skip's observable result.

    One rule turns the window into data faults: each in-window store becomes
    a write replacement carrying that site's skip fill; each in-window
    instruction but the Return, checks included, reads its baseline operand
    at every read slot, so it computes its baseline value whatever a fault
    outside the window did to its operands, and a check passes, as a
    skipped one does; every read of an in-window input load from outside
    the window gets that load's fill; and a window over the Return zeroes
    the returned read instead. A row is matched when circuit.execute gives
    the witness and the skip the same result. Because no in-window
    instruction computes from a live operand, the witness also matches the
    skip when a data fault on a site it does not name, outside the window's
    indices, is added to both.
    """
    inputs = program_inputs(program, key, message)
    baseline = execute(program, inputs, seed=seed).regs()
    results: list[SkipWitness] = []
    n_instr = len(program.instrs)
    for length in range(1, max_skip_len + 1):
        for first in range(0, n_instr - length + 1):
            window = (first, first + length - 1)
            skip = (FaultAction(SkipRange(*window), FaultKind.SKIP),)
            target = execute(program, inputs, seed=seed, plan=skip).result
            witness = _skip_witness(program, seed, window, baseline)
            ok = same_result(execute(program, inputs, seed=seed, plan=witness).result, target)
            results.append(SkipWitness(window, witness, ok))
    return results


def _skip_witness(
    program: Program, seed: int, window: tuple[int, int], baseline: dict[str, int]
) -> FaultPlan:
    """The window's data faults by check_skip_subsumption's rule; baseline
    maps each register to its fault-free value (a register is written once)."""
    first, last = window
    instrs = program.instrs
    plan: list[FaultAction] = []
    for i in range(first, last + 1):
        ins = instrs[i]
        if isinstance(ins, Ret):
            plan.append(FaultAction(ReadOf(i, 0), FaultKind.ZERO))
            continue
        plan += [
            FaultAction(ReadOf(i, slot), FaultKind.RANDOMIZE, baseline[reg])
            for slot, reg in reads_of(ins)
        ]
        dst, fill = dst_of(ins), skip_fill_value(seed, i)
        if isinstance(ins, LoadInput):
            plan += [
                FaultAction(ReadOf(j, slot), FaultKind.RANDOMIZE, fill)
                for j in range(last + 1, len(instrs))
                for slot, reg in reads_of(instrs[j])
                if reg == dst
            ]
        elif dst is not None:
            plan.append(FaultAction(WriteOf(i), FaultKind.RANDOMIZE, fill))
    return tuple(plan)
