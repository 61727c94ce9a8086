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
ones are sampled and classified by replaying each hit in four rounds, each
under a moved seed (which re-draws the checksum primes) and on one of two
other messages in turn - a collision evaporates, a real break does not.

Every (table row, value) of a campaign has an integer action id
(ActionIds): the row's rank shifted left, or'd with the value's index, so
ids ascend in plan sort order and decode by shift and mask. A plan is one
int, its ids packed first site highest at the fixed width of the largest
id, so packed plans sort, deduplicate and compare as tuples of their ids
would; an order-1 plan is a bare id. Plans are drawn, deduplicated and
sorted as ints, and the campaign unpacks their ids (ActionIds.unpack)
where a batch gathers its faults, the replay pass's batches included, so
a campaign builds no FaultAction. A whole-domain randomize row holds its
values as an array('q'), not a tuple of ints.

Faulted runs go through circuit.FaultRunner, which replays faults against
the fault-free baseline of their message; circuit.execute stays the
reference that runs the baselines and judges skip-subsumption plans. A
campaign runs its plans in batches of at most _BATCH, one lane per plan
and one FaultRunner.run_batch pass per batch and message: the plan list at
order 2 and above; at order 1 each instruction group's outputs (see
below), each other zero and randomize row's values, then the skip rows.
A batch's per-index fault lists are gathered once for all messages, and
each pass is scored as soon as it returns, as one column:
gcd(N, v - S) over the lanes' released values, so only a lane that breaks
is visited on its own. One writer keeps every break as one entry of a
few parallel columns (its id plan, message, released value and factor),
listing its index on each row its plan touches; a row's success, factor
and silent counts are derived from those lists once every plan has run.
A report keeps those columns, each plan decoded to its actions, and
nothing else of the campaign, and builds AttackSuccess objects only where
it is read: successes builds the whole list on first use, to_json only
the few successes it lists per row.

At order 1 a fault at an instruction j that stores a value, whether a
replaced operand read or a replaced stored value, reaches later
instructions only through the value j stores, since registers are
written once and defined before use: a read fault of value v is the
write fault of u, what j computes from its baseline operands with v in
the read slot, unless j crashes on it (the run ends there) or u is j's
baseline value (the run releases the baseline signature). So the zero
and randomize rows of j are one group (_output_groups), and each
distinct u runs once per message, as a write lane at j; every row of the
group books its lanes from those runs, lane by lane, then message by
message. A read fault whose register has one reader, naming it once, is
the same fault as a write fault on that register's writer: such a twin
read row, with the write row's values, joins the writer's group, booked
as its write row is. A group's other rows name the job that ran the
group, and _fork_join applies each with that job's result, booked under
its own row and action ids. A check's read rows, and the skip rows, run
lane by lane. A report counts the lanes its campaign ran and booked
(lanes_run, lanes_booked), never serialized.

The replay probes run round-major: each round runs the successes still
pending as run_batch lanes, one runner pass per batch and alternate
message, scored as a column; plan_persists, which runs one plan at a time
through FaultRunner.run, stays the reference. _runner alone keeps runners,
a bounded dict per program under (key, message, seed), so each baseline
runs once: the campaign's messages, the site-action table and every replay
round share them. Before any fault is injected, each message's fault-free
output must be its CRT signature.

Everything is deterministic in (spec, program): sampling is seeded per
site and runs are tallied in plan order, then message order.
CampaignSpec.workers, by default the number of CPUs this process may use,
forks the scoring of a campaign's batches across that many processes.
The bookkeeping stays in the parent, which applies every batch's result in
batch order, so reports are byte-identical for any worker count.
"""

from __future__ import annotations

import functools
import json
import math
import os
import random
import threading
import zlib
from array import array
from collections import defaultdict
from dataclasses import dataclass, field, fields
from itertools import combinations, compress, count, filterfalse, islice, product, repeat
from operator import eq, is_, itemgetter, sub
from typing import NoReturn

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
    Signature,
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
from .modmath import bellcore_extract

_ALT_SEED_STEPS = (1_000_003, 2_000_003, 3_000_017, 4_000_037)
_REPLAY_CAP = 8
_SUCCESSES_PER_ROW = 5  # successes to_json lists per (first site, kind)

# CampaignSpec.workers' default
_USABLE_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

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
    and one outside (0, N) aliases another message. No message or fault
    kind may repeat: a repeated message's runs would count twice, and a
    repeated kind gives the same rows under a second report hash.
    samples_per_site must be at least 1, or sampled randomize rows would run
    no value; with "skip" among the kinds, max_skip_len must be at least 1,
    or there would be no skip row. plan_limit bounds the plans of orders 2
    and above: their whole space runs when it holds at most plan_limit
    plans, else plan_limit distinct plans are drawn (build_plans). It must
    be at least 1 at every order, or a sampled space would run no plan.
    workers is how many processes run and score the campaign's batches;
    it defaults to the CPUs this process may use. The parent keeps the
    bookkeeping and applies each batch's result in batch order, so the
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
    workers: int = _USABLE_CPUS

    def __post_init__(self):
        if (self.algo is None) == (self.program is None):
            raise ValueError("give exactly one of algo or program")
        if self.order < 1:
            raise ValueError("order must be at least 1")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if self.samples_per_site < 1:
            raise ValueError("samples_per_site < 1 gives sampled sites no fault plans")
        if self.plan_limit < 1:
            raise ValueError("plan_limit < 1 gives orders 2 and above no fault plans")
        if "skip" in self.kinds and self.max_skip_len < 1:
            raise ValueError("max_skip_len < 1 gives the skip kind no fault plans")
        for k in self.kinds:
            if k not in [kind.value for kind in FaultKind]:
                raise ValueError(f"unknown fault kind {k!r}")
            if self.kinds.count(k) > 1:
                raise ValueError(f"fault kind {k!r} is repeated: each kind runs once")
        check_crt_key(self.key)
        n = self.key.p * self.key.q
        messages = _messages_of(self)
        for m in messages:
            if not 0 < m < n or math.gcd(m, n) != 1:
                raise ValueError(
                    f"message {m} is not a unit mod N={n}: need 0 < M < N and gcd(M, N) = 1"
                )
            if messages.count(m) > 1:
                raise ValueError(f"message {m} is repeated: each message runs once")


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
    persistent: int | None = None  # replayed hits surviving every plan_persists round
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


@dataclass(slots=True)
class AttackSuccess:
    """One breaking plan: the released value leaked a factor of N."""

    message: int
    actions: tuple[tuple[str, str, int | None], ...]  # (site key, kind, value)
    signature: int
    factor: int
    side: str  # "p" | "q"
    persistent: bool | None  # None when the row is classified by exact fraction


# an AttackSuccess's fields: to_json's keys per listed success; its values
# are ints, strs, None and tuples of them, so they need no copy
_SUCCESS_FIELDS = tuple(f.name for f in fields(AttackSuccess))


@dataclass
class _Breaks:
    """A campaign's breaks as parallel columns, one entry per break in
    report order: its actions, (site key, kind, value) per fault, one tuple
    decoded from the lane's packed plan (ActionIds) and shared by the
    lane's breaks; its message; its released value
    (signature); the factor gcd(N, v - S) gave; and the replay verdict,
    None for a break the replay pass did not probe. p is N's factor named
    "p", and listed holds the indices of the breaks to_json lists."""

    p: int
    actions: list[tuple[tuple[str, str, int | None], ...]]
    messages: list[int]
    signatures: list[int]
    factors: list[int]
    persistent: list[bool | None]
    listed: list[int]

    def successes(self, hits) -> list[AttackSuccess]:
        """One AttackSuccess per break index of hits, in that order."""
        p = self.p
        return [
            AttackSuccess(
                self.messages[i], self.actions[i], self.signatures[i], self.factors[i],
                "p" if self.factors[i] == p else "q", self.persistent[i],
            )
            for i in hits
        ]


@dataclass
class CampaignReport:
    """A campaign's outcome. The breaks are kept as columns (_Breaks), and
    successes builds their AttackSuccess list on first use; to_json builds
    only the ones it lists. lanes_run counts the lanes the campaign's
    faulted runs passed to FaultRunner.run_batch, and lanes_booked the
    lanes it booked without running them (instruction groups,
    _output_groups), each summed over messages; the replay pass is in
    neither. Neither is serialized."""

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
    breaks: _Breaks
    totals: dict = field(default_factory=dict)
    lanes_run: int = 0
    lanes_booked: int = 0

    @functools.cached_property
    def successes(self) -> list[AttackSuccess]:
        """Every break, in plan order, then message order."""
        return self.breaks.successes(range(len(self.breaks.messages)))

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
        out = self.breaks.successes([i for i, kept in enumerate(self.breaks.persistent) if kept])
        if not include_rng:
            out = [s for s in out if not _touches_rng(phases, s)]
        return out

    def to_json(self) -> str:
        listed = self.breaks.successes(self.breaks.listed)
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
            "successes_total": len(self.breaks.messages),
            "successes": [{f: getattr(s, f) for f in _SUCCESS_FIELDS} for s in listed],
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
    """All actions a campaign may take at one site under one kind.

    values holds a whole-domain randomize row as an array('q'), 8 bytes a
    value; a sampled row, whose values may pass 64 bits on a larger key,
    and the one-value zero and skip rows hold a tuple."""

    site: FaultSite
    kind: FaultKind
    values: tuple[int | None, ...] | array  # (None,) for zero and skip
    exhaustive: bool
    domain: int | None
    nominal: int | None  # the site's fault-free value; None for skip


def site_action_table(program: Program, spec: CampaignSpec) -> list[SiteActions]:
    """Deterministic per-site action lists for the spec's kinds.

    A randomize row whose domain is at most exhaustive_threshold takes
    every value of it but the nominal one, in order, as an array('q'): the
    two ranges either side of the nominal value, each a slice of one ramp
    array 0, 1, 2, ... that grows to the largest such domain. A sampled
    randomize row draws rng.randrange(domain) until it holds
    samples_per_site values other than the nominal one, or every such
    value. The loop makes the rng.getrandbits calls randrange makes on
    CPython (_randbelow's redraws) without its layers; test_faultengine's
    differential test against random.Random on the running interpreter
    guards the sequence.
    """
    runner = _runner(program, spec.key, _messages_of(spec)[0], spec.seed)
    domains = site_domains(program, runner.baseline.regs())
    table: list[SiteActions] = []
    ramp = array("q")
    for site in enumerate_sites(program, spec.max_skip_len if "skip" in spec.kinds else 0):
        if isinstance(site, SkipRange):
            table.append(SiteActions(site, FaultKind.SKIP, (None,), True, None, None))
            continue
        dom, nominal = domains[site]
        if "zero" in spec.kinds:
            table.append(SiteActions(site, FaultKind.ZERO, (None,), True, dom, nominal))
        if "randomize" in spec.kinds:
            if dom <= spec.exhaustive_threshold:
                if len(ramp) < dom:
                    ramp = array("q", range(dom))
                vals = ramp[:nominal] + ramp[nominal + 1 : dom] if 0 <= nominal < dom else ramp[:dom]
                table.append(SiteActions(site, FaultKind.RANDOMIZE, vals, True, dom, nominal))
            else:
                bits, dom_bits = _site_sample_rng(spec, site.key(program)).getrandbits, dom.bit_length()
                want = min(spec.samples_per_site, dom - 1)
                picked: set[int] = set()
                while len(picked) < want:
                    v = bits(dom_bits)
                    if v < dom and v != nominal:  # a draw past dom is redrawn
                        picked.add(v)
                table.append(
                    SiteActions(site, FaultKind.RANDOMIZE, tuple(sorted(picked)), False, dom, nominal)
                )
    return table


def _messages_of(spec: CampaignSpec) -> tuple[int, ...]:
    if spec.messages:
        return spec.messages
    n = spec.key.p * spec.key.q
    return (2, 3, n - 2)


# ------------------------------------------------------------ plan universes

# a plan over ActionIds: one action id per faulted site, sites in table
# order, packed into one int first site highest, ActionIds.width bits an id
IdPlan = int


# where a site's class sorts among actions: writes, reads, then skip windows;
# within a class a site sorts by its own order
_SITE_RANK = {WriteOf: 0, ReadOf: 1, SkipRange: 2}


class ActionIds:
    """Integer ids for a campaign's actions, one per (table row, value),
    and the packing of its plans of `order` ids.

    Rows are ranked by site (writes by index, reads by index and slot, skip
    windows by first then last index), then by kind name (randomize, skip,
    zero); by_id lists the table rows in rank order. Value k of the row
    ranked i has the id i << shift | k, shift being the bit length of the
    longest row's value count, so ids ascend by rank and then by value. An
    id decodes by arithmetic: its row is by_id[a >> shift] and its value
    index a & mask. Row r holds the consecutive ids from base[r]; ids are
    not dense. Sites are numbered in order of first appearance in the
    table; sizes holds their action counts, a site's actions counting
    through its rows in table order. A site has at most two rows (zero and
    randomize, or one skip row), so spans gives its action k: with
    spans[g] = (n0, b0, off), the id is b0 + k in the first row (k < n0)
    and off + k in the second.

    A plan packs its ids first site highest, width bits each, width being
    the largest id's bit length: plan = plan << width | id, id by id. Every
    id is below 1 << width, so packed plans of one order sort as the id
    tuples they pack, and so as the actions they stand for. An order-1
    plan is its bare id. unpack is the one decoder: places holds each
    position's shift, first site first, and id_mask one id's bits.
    _Tally._faults and _Tally.report_breaks run its loop inline.
    """

    def __init__(self, table: list[SiteActions], order: int = 1):
        self.table = table
        rank = [(_SITE_RANK[t.site.__class__], t.site, t.kind.value) for t in table]
        self.by_id = sorted(range(len(table)), key=rank.__getitem__)
        self.shift = max((len(t.values) for t in table), default=0).bit_length()
        self.mask = (1 << self.shift) - 1
        self.base = [0] * len(table)
        for rank, r in enumerate(self.by_id):
            self.base[r] = rank << self.shift
        largest = max((b + len(t.values) - 1 for b, t in zip(self.base, table)), default=0)
        self.width = max(largest.bit_length(), 1)
        self.id_mask = (1 << self.width) - 1
        self.places = range(self.width * (order - 1), -1, -self.width)
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

    def unpack(self, plan: IdPlan) -> list[int]:
        """The ids a packed plan holds, first site first."""
        m = self.id_mask
        return [plan >> s & m for s in self.places]


def _space_size(sizes: list[int], order: int) -> int:
    """Number of plans faulting `order` distinct sites, sizes holding each
    site's action count: the elementary symmetric sum e_order."""
    e = [0] * (order + 1)
    e[0] = 1
    for n in sizes:
        for k in range(order, 0, -1):
            e[k] += e[k - 1] * n
    return e[order]


def build_plans(
    program: Program, spec: CampaignSpec, table: list[SiteActions]
) -> tuple[list[IdPlan] | None, bool, ActionIds]:
    """The campaign's packed id plans, whether they had to be sampled, and
    the ActionIds that unpack them.

    Order 1 builds no list (None): its plans are the table's actions, one
    each, which run_campaign runs row by row. Higher orders take every
    combination of distinct sites when the exact count fits plan_limit,
    combinations in table order with the first site's action varying
    fastest; otherwise plan_limit distinct draws (site subset uniform, one
    of the site's actions under any kind uniform), or as many as 50 *
    plan_limit draws find, sorted. No plan faults a site twice. A plan is
    one int (ActionIds), so drawing, deduplicating and sorting never build
    a tuple or a FaultAction: a whole space is the sums over the product
    of each position's ids, shifted to that position beforehand, and a
    draw packs each id as it is drawn. The campaign, its replay pass
    included, unpacks ids by shift and mask.

    A draw is rng.sample(range(sites), order), sorted, then one
    rng.randrange(size) per picked site, decoded through ActionIds.spans.
    The loop makes exactly the rng.getrandbits calls those two methods
    make on CPython (sample's pool or set branch, then _randbelow's
    redraws), without their layers; test_faultengine's differential test
    against random.Random on the running interpreter guards the sequence.
    """
    order, limit = spec.order, spec.plan_limit
    ids = ActionIds(table, order)
    if order == 1:
        return None, False, ids
    sizes, width = ids.sizes, ids.width
    if _space_size(sizes, order) <= limit:
        per_site = [[ids.nth(g, k) for k in range(n)] for g, n in enumerate(sizes)]
        # per position, last first, each site's ids shifted to that position
        placed = [[[a << s for a in acts] for acts in per_site] for s in reversed(ids.places)]
        plans = [
            plan
            for combo in combinations(range(len(sizes)), order)
            for plan in map(sum, product(*[placed[j][g] for j, g in enumerate(reversed(combo))]))
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
        plan = 0
        for g in picks:
            n, n_bits, n0, b0, off = draws[g]
            k = bits(n_bits)
            while k >= n:
                k = bits(n_bits)
            plan = plan << width | (b0 + k if k < n0 else off + k)
        plans_set.add(plan)
    return sorted(plans_set), True, ids


# ----------------------------------------------------------------- scoring


def score_outcome(n: int, p: int, q: int, baseline_sig: int, result) -> tuple[str, int | None, str | None]:
    """Classify one faulted outcome through bellcore_extract: (tally,
    factor, side). The reference the tests check _column and replay_plan
    against."""
    if isinstance(result, (ErrorOut, Crash)):
        return "no_output", None, None
    leak = bellcore_extract(n, baseline_sig, result.value, p, q)
    if not leak.success:
        return "silent", None, None
    return "success", leak.factor, "p" if leak.factor == p else "q"


def _column(n: int, p: int, q: int, results: list, sig: int) -> tuple[list, int, list[tuple[int, int, int]]]:
    """One run_batch pass scored as a column against signature sig, N = p*q:
    (values, ended, leaks). values[k] is the value lane k released, None
    when it released none (an ErrorOut or Crash); ended counts those lanes.
    leaks holds (lane, released value, gcd(N, v - S)) per lane whose value
    leaks p or q, in lane order; every other lane with output is silent. A
    column whose values are all the signature or None needs no gcd."""
    values = list(map(getattr, results, repeat("value"), repeat(None)))
    ended = values.count(None)
    if ended + values.count(sig) == len(values):
        return values, ended, []
    # no output scores as the signature, so gcd N: no break
    released = list(map(getattr, results, repeat("value"), repeat(sig))) if ended else values
    gs = list(map(math.gcd, repeat(n), map(sub, released, repeat(sig))))
    if not gs.count(p) + gs.count(q):
        return values, ended, []
    return values, ended, [(k, released[k], g) for k, g in enumerate(gs) if g == p or g == q]


# runners _runner keeps per program; a campaign on the default messages keeps
# 11: 3 for the messages, 8 for the 4 replay rounds, whose alternates coincide
_RUNNER_MEMO_SIZE = 64


def _runner(program: Program, key: CrtKey, message: int, seed: int) -> FaultRunner:
    """program's runner on one message, kept in program._runners under
    (key, message, seed), so a baseline runs and program_inputs builds its
    map once per new key, message and seed. At most _RUNNER_MEMO_SIZE
    runners are kept; the oldest goes first. A construction that raises
    is not kept, so the next call raises again."""
    memo = program._runners
    tag = (key, message, seed)
    runner = memo.get(tag)
    if runner is None:
        runner = FaultRunner(program, program_inputs(program, key, message), seed)
        if len(memo) >= _RUNNER_MEMO_SIZE:
            del memo[next(iter(memo))]
        memo[tag] = runner
    return runner


def replay_plan(
    program: Program, key: CrtKey, message: int, plan: FaultPlan, seed: int
) -> tuple[object, bool, int | None]:
    """Run one plan; return (result, broke, factor). Baseline uses the same
    seed. The result is scored as score_outcome scores it, without the
    tally name."""
    runner = _runner(program, key, message, seed)
    result = runner.run(plan)
    if result.__class__ is not Signature:
        return result, False, None
    p, q = key.p, key.q
    g = math.gcd(p * q, result.value - runner.signature)
    if g == p or g == q:
        return result, True, g
    return result, False, None


def _alt_messages(n: int, message: int) -> list[int]:
    """The first two candidate messages distinct from `message` mod n."""
    alts: list[int] = []
    m = 2
    while len(alts) < 2:
        if m % n != message % n and math.gcd(m, n) == 1:
            alts.append(m)
        m += 1
    return alts


def _redrawn_value(site: FaultSite, dom: int, nominal: int, seed: int, round_no: int) -> int:
    """The value a randomize action at site takes in probe round round_no,
    given the site's (domain, nominal): a draw below dom other than nominal.
    It depends on (seed, site, round) alone, so one draw serves every
    action on that site in that round."""
    rng = random.Random((seed * 0x9E3779B1 + zlib.crc32(f"{site!r}|{round_no}".encode())) & 0xFFFFFFFFFFFF)
    v = rng.randrange(dom)
    while v == nominal:
        v = rng.randrange(dom)
    return v


def _redrawn_plan(
    plan: FaultPlan,
    redraw: dict[FaultSite, tuple[int, int]] | None,
    seed: int,
    round_no: int,
) -> FaultPlan:
    if not redraw:
        return plan
    return tuple(
        FaultAction(a.site, a.kind, _redrawn_value(a.site, *redraw[a.site], seed, round_no))
        if a.kind is FaultKind.RANDOMIZE and a.site in redraw
        else a
        for a in plan
    )


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

    This is the one-plan reference: campaigns do not call it, but probe
    their successes in _replay, round by round as run_batch lanes, which
    test_faultengine checks against it success by success.
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
    nothing else, to the value the read fault puts there. Values are
    compared as sequences, an array('q') row against a tuple one too.
    Writes come before reads in the table, so a campaign runs the write
    row first.
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
                and readers[w] == 1 << (len(ops) - 1 - j)
                and srcs.count(w) == 1
                and len(table[wr].values) == len(t.values)
                and all(map(eq, table[wr].values, t.values))
            ):
                twins[r] = wr
    return twins


def _output_groups(code: CompiledProgram, table: list[SiteActions]) -> dict[int, int]:
    """Each order-1 row whose runs follow from what one instruction stores,
    mapped to the first row of its instruction's group, whose job runs them.

    A zero or randomize row on WriteOf(j) or ReadOf(j, slot) of an
    instruction j that stores a value reaches later instructions only
    through that value, registers being written once and defined before
    they are read: a write row puts its value there, and a read row the
    value u that j computes from its baseline operands with the slot's
    replaced (_Tally._outputs). So every such row of j is one group. A
    twin read row (_twin_rows) joins its write row's group: its lanes
    store its values at the writer, as the write row's do. A check's read
    rows store nothing and are in no group. Writes come before reads in
    the table, so a group's first row is a write row.
    """
    ops, twins, first, groups = code.ops, _twin_rows(code, table), {}, {}
    for r, t in enumerate(table):
        if r in twins:
            groups[r] = groups[twins[r]]
        elif t.kind is not FaultKind.SKIP and dst_of(ops[t.site.index][0]) is not None:
            groups[r] = first.setdefault(t.site.index, r)
    return groups


# plans per FaultRunner.run_batch pass
_BATCH = 256


def _fork_join(jobs: list[tuple], compute, apply, workers: int, cost) -> None:
    """apply(job, result) for every job, strictly in job order. A job's
    first item is its lane count and its last the index of the earlier job
    whose result it takes, or None; cost(job) estimates what computing it
    takes. A job that names one is not computed: it is applied with that
    result. Several jobs may take one result, which is held from its own
    job's apply until its last taker's. What is held is thus the results
    of applied jobs whose last taker is still to come: at order 1, each
    instruction group's result (_output_groups), from its write row's job
    until its last read row's or twin read row's, after every write row.

    compute must be pure. With workers >= 2, on a process of one thread
    that can fork, and at least two computed jobs per process, the jobs
    are cut into up to `workers` contiguous chunks of about equal cost
    (_chunks). A child forked for each chunk after the first computes it
    and writes its results to a pipe, one pickle each (_child); this
    process computes and applies chunk 0 meanwhile, then loads each
    child's results in turn, one pickle.load apiece, so that no unpickler
    memo keeps them alive.
    Where a child could not be forked, or its results stop short because
    it raised or died, this process computes the rest of its chunk, so a
    batch that fails raises what it raises in a serial run. Every child is
    killed if still running, and reaped, before this returns or raises.
    Otherwise every job is computed here.
    """
    last = {job[-1]: i for i, job in enumerate(jobs) if job[-1] is not None}  # per taken job, its last taker
    chunks, pids, streams = [jobs], [], [None]  # chunk 0 has no child
    procs = min(workers, sum(1 for job in jobs if job[-1] is None) // 2)
    try:
        if procs >= 2 and hasattr(os, "fork") and threading.active_count() == 1:
            import pickle  # only a forked campaign pays for these imports
            import signal

            chunks = _chunks(jobs, procs, cost)
            for chunk in chunks[1:]:
                r, w = os.pipe()
                try:
                    pid = os.fork()
                except OSError:  # no child: this process computes the chunk
                    os.close(r)
                    os.close(w)
                    streams.append(None)
                    continue
                if pid == 0:
                    _child(chunk, compute, w)
                os.close(w)
                pids.append(pid)
                streams.append(open(r, "rb"))
        held, i = {}, 0
        for chunk, stream in zip(chunks, streams):
            for job in chunk:
                taken = job[-1]
                out = held.pop(taken) if last.get(taken) == i else held.get(taken)  # None unless taken
                if out is None and stream is not None:
                    try:
                        out = pickle.load(stream)
                    except (EOFError, pickle.UnpicklingError):  # the child stopped short
                        pass
                if out is None:
                    out = compute(job)
                apply(job, out)
                if i in last:
                    held[i] = out
                i += 1
    finally:
        for stream in streams:
            if stream is not None:
                stream.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _chunks(jobs: list[tuple], procs: int, cost) -> list[list[tuple]]:
    """jobs cut into procs contiguous chunks of about equal cost, a job
    that takes an earlier job's result costing nothing: a chunk ends at the
    job that brings the cost so far to its share."""
    costs = [0 if job[-1] is not None else cost(job) for job in jobs]
    total, chunks, start, done = sum(costs), [], 0, 0
    for i, c in enumerate(costs):
        done += c
        if len(chunks) < procs - 1 and done * procs >= total * (len(chunks) + 1):
            chunks.append(jobs[start : i + 1])
            start = i + 1
    chunks.append(jobs[start:])
    return chunks


def _child(chunk: list[tuple], compute, fd: int) -> NoReturn:
    """In a forked child: compute the chunk's jobs that take no earlier
    job's result, write their results to fd, one pickle each, and end the
    process without unwinding the parent's stack. Every result is computed
    before any is written: the parent reads only once its own chunk is
    done, and a full pipe would stall the child until then. A child whose
    compute raises writes nothing."""
    import pickle

    status = 1
    try:
        blobs = [pickle.dumps(compute(job), pickle.HIGHEST_PROTOCOL) for job in chunk if job[-1] is None]
        with open(fd, "wb") as out:
            out.writelines(blobs)
        status = 0
    finally:
        os._exit(status)


class _Tally:
    """A campaign's faulted runs and their bookkeeping.

    rows holds one SiteRow per table row, indexed like the table; runs
    holds (message, runner, baseline signature) per message. Plans run in
    batches of _BATCH, one FaultRunner.run_batch pass per batch and
    message, and each pass is scored as it returns, as one column: the
    lanes' released values, an ErrorOut or Crash having none (no output),
    then gcd(N, v - S) of each. A column with neither p nor q in it is
    counted by list counts alone; only a lane that breaks is visited on
    its own.

    run makes one ordered list of jobs, each (lanes, row, start, taken): a
    batch of lanes plans from offset start, into the values of row, an
    order-1 table row, or with row None into the one plan list, planned,
    of packed id plans (ActionIds), an order-1 skip plan being its bare
    id. taken is the index of the earlier job whose result the job takes,
    or None. At order 1 the zero and randomize rows of an instruction
    that stores a value are one group (_output_groups), one whole-row job
    each: the first row's job runs the group (_outputs), each distinct
    value the instruction may store once per message, and the group's
    other rows take its result. A read row twin to a write row
    (_twin_rows) is in its write row's group, whose values it has. The
    rows of no group (a check's read rows) run in batches of their
    values. _fork_join
    computes the jobs that take nothing with _compute, which reads
    nothing the bookkeeping writes, so it may run in a child, and cuts
    them into chunks by _cost. _apply books each result under its own
    job's plans, in this process, in job order, and counts the lanes run
    and booked. It adds attempts and no-output runs into two flat per-row
    int lists, and hands the breaks to _keep, the one writer of breaks: a
    break becomes one entry of each break column (plans, one packed int
    each, kept for the replay pass; messages, signatures, factors and
    persistent), and its index is listed in row_hits on every row its
    plan touches; breaks come in plan order, then message order, whatever
    the number of workers. When every job is applied, run derives each
    row's successes, factor_p, factor_q and silent runs from those lists.
    _replay writes its verdicts into persistent by index, and
    report_breaks hands the columns, each plan decoded to its actions, to
    the report, which keeps nothing else of the tally. _replay unpacks
    plans with ActionIds.unpack; _faults and report_breaks, which unpack
    every plan they meet, run its loop inline.
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
        # the break columns, one entry per break as in _Breaks, but for the
        # id plan in place of its actions; _replay fills in persistent
        self.plans: list[IdPlan] = []
        self.messages: list[int] = []
        self.signatures: list[int] = []
        self.factors: list[int] = []
        self.persistent: list[bool | None] = []
        # the runs' own message ints: hits unpickled from a forked child
        # hold a copy of the message each
        self._messages = {m: m for m, _runner, _sig in runs}
        # per table row, the indices of the breaks whose plans touch it
        self.row_hits: dict[int, list[int]] = defaultdict(list)
        self._attempts, self._no_output = [0] * len(self.table), [0] * len(self.table)
        self.planned: list[IdPlan] = []  # the id plans the jobs run from offsets
        # at order 1, per instruction group's first row the group's rows (_output_groups)
        self._groups: dict[int, list[int]] = defaultdict(list)
        # lanes booked and lanes run through FaultRunner.run_batch, each
        # summed over messages (CampaignReport.lanes_run, lanes_booked)
        self.lanes = self.ran = 0
        # (index, read slot or None, skipped indices) per table row: a skip
        # window has index -1 and its indices as the range, a data site its
        # faulted index and an empty range
        self._sites = [
            (-1, None, range(t.site.first, t.site.last + 1))
            if isinstance(t.site, SkipRange)
            else (t.site.index, getattr(t.site, "slot", None), range(0))
            for t in self.table
        ]

    def run(self, plans: list[IdPlan] | None, workers: int) -> None:
        """Run build_plans' plans in order, in batches of _BATCH, across up
        to `workers` processes. At order 1 (None) run the table in order
        instead: each row of an instruction group (_output_groups), twin
        read rows included, as one job, the group's first row's computing
        the group and the others taking its result; each other zero and
        randomize row (a check's read row) in batches of _BATCH of its
        values; then the skip rows, one
        plan each, in batches of _BATCH (enumerate_sites lists every skip
        window after every data site). Then write each row's counts into
        rows, which _replay reads."""
        jobs = []
        if plans is None:
            groups = _output_groups(self.code, self.table)
            for r, g in groups.items():
                self._groups[g].append(r)
            first, plans = {}, []  # per row, its first job
            for r, t in enumerate(self.table):
                if t.kind is FaultKind.SKIP:
                    plans.append(self.ids.base[r])
                    continue
                n, g, first[r] = len(t.values), groups.get(r), len(jobs)
                if g is None:
                    jobs += [(min(_BATCH, n - s), r, s, None) for s in range(0, n, _BATCH)]
                else:
                    jobs.append((n, r, 0, None if g == r else first[g]))
        self.planned = plans
        jobs += [(min(_BATCH, len(plans) - s), None, s, None) for s in range(0, len(plans), _BATCH)]
        _fork_join(jobs, self._compute, self._apply, workers, self._cost)
        factors, p, q, row_hits = self.factors, self.key.p, self.key.q, self.row_hits
        for r, (row, attempts, none) in enumerate(zip(self.rows, self._attempts, self._no_output)):
            hits = [factors[i] for i in row_hits.get(r, ())]
            row.attempts, row.no_output, row.successes = attempts, none, len(hits)
            row.factor_p, row.factor_q = hits.count(p), hits.count(q)
            row.silent = attempts - none - len(hits)

    def _cost(self, job: tuple) -> int:
        """What computing a job takes, as _chunks weighs it: its lanes, or
        its group's (_output_groups), each re-evaluating at most the
        instructions from the one it faults to the Return; an id-plan
        batch's lanes each all of them."""
        lanes, r, _start, _taken = job
        n = len(self.code.ops)
        if r is None:
            return lanes * n
        if r in self._groups:
            lanes = sum(len(self.table[g].values) for g in self._groups[r])
        return lanes * (n - self._sites[r][0])

    def _compute(self, job: tuple) -> tuple:
        """Run one job on every message: (lanes run, summed over messages;
        what it books). A group's first row's job runs its group
        (_outputs). A row batch's faults come from the row's values, an
        id-plan batch's from decoded ids (_faults). A row job books {row:
        (no-output runs, hits)} for each row it runs, an id-plan batch (no-
        output runs per plan, None if there are none; the rows each plan
        touches; hits), hits as _score gives them."""
        lanes, r, start, _taken = job
        ran = lanes * len(self.runs)
        if r is None:
            faults, plan_rows = self._faults(self.planned[start : start + lanes])
            columns, none, hits = self._score(faults)
            return ran, (([vs.count(None) for vs in zip(*columns)] if none else None), plan_rows, hits)
        if r in self._groups:
            return self._outputs(self._groups[r])
        index, slot, _window = self._sites[r]
        # zero is randomize to 0
        values = list(enumerate(v or 0 for v in self.table[r].values[start : start + lanes]))
        if slot is None:
            faults = (lanes, {index: values}, {}, {})
        else:
            faults = (lanes, {}, {index: [(k, slot, v) for k, v in values]}, {})
        _columns, none, hits = self._score(faults)
        return ran, {r: (none, hits)}

    def _outputs(self, rows: list[int]) -> tuple[int, dict]:
        """Run one instruction group, rows in table order, on every message,
        as _compute returns it: each distinct value instruction j may store
        runs once per message, as a write lane at j, and each row's lanes
        are booked from those runs, lane by lane, then message by message.
        A write or zero lane's value, or a twin read row's, is its own
        output. A read lane's output is what j computes from its baseline
        operands with the read slot's replaced (FaultRunner.outputs): a
        Crash ends the lane there, and j's baseline value releases the
        baseline signature, so neither runs. Only the other outputs run, in
        batches of _BATCH."""
        table, sites, n, p, q = self.table, self._sites, self.n, self.key.p, self.key.q
        j = sites[rows[0]][0]
        none, found, ran = dict.fromkeys(rows, 0), {r: [] for r in rows}, 0
        for m, runner, sig in self.runs:
            outs = []
            for r in rows:
                index, slot, _window = sites[r]
                values = (0,) if table[r].kind is FaultKind.ZERO else table[r].values  # zero is randomize to 0
                # a twin read row's lanes store its values, as its write row's do
                outs.append(values if slot is None or index != j else runner.outputs(j, slot, values))
            seen = set().union(*outs)
            seen.discard(runner.stored[j])
            ended = set(filterfalse(int.__instancecheck__, seen))  # the Crashes
            todo = list(seen - ended)
            ran += len(todo)
            leaked = {}
            for s in range(0, len(todo), _BATCH):
                chunk = todo[s : s + _BATCH]
                results = runner.run_batch(len(chunk), {j: list(enumerate(chunk))}, {}, {})
                released, _ended, leaks = _column(n, p, q, results, sig)
                ended.update(compress(chunk, map(is_, released, repeat(None))))
                leaked.update((chunk[k], (v, g)) for k, v, g in leaks)
            for r, us in zip(rows, outs):
                none[r] += sum(map(ended.__contains__, us))
                if leaked:
                    found[r] += [(k, m, *leaked[us[k]]) for k in compress(count(), map(leaked.__contains__, us))]
        booked = {}
        for r, hits in found.items():
            hits.sort(key=itemgetter(0))  # stable: messages stay in order within a lane
            booked[r] = none[r], list(zip(*hits))
        return ran, booked

    def _apply(self, job: tuple, result: tuple) -> None:
        """Book one job's result under its job's plans: attempts and
        no-output runs on the rows they touch, and breaks through _keep. A
        row job takes its row's entry out of the result as it books it. A
        job that takes another job's result adds nothing to the lanes run."""
        lanes, r, start, taken = job
        ran, booked = result
        n_runs = len(self.runs)
        self.lanes += lanes * n_runs
        if taken is None:
            self.ran += ran
        if r is not None:
            ended, hits = booked.pop(r)  # a held result keeps only its takers' rows
            self._attempts[r] += n_runs * lanes
            self._no_output[r] += ended
            if hits:
                first = self.ids.base[r] + start
                self._keep(range(first, first + lanes), r, hits)
            return
        ended, plan_rows, hits = booked
        attempts, no_output = self._attempts, self._no_output
        for touched, e in zip(plan_rows, ended or repeat(0)):
            for row in touched:
                attempts[row] += n_runs
                no_output[row] += e
        if hits:
            self._keep(self.planned[start : start + lanes], plan_rows, hits)

    def _keep(
        self, plans: list[IdPlan] | range, plan_rows: list[list[int]] | int, hits: list[tuple]
    ) -> None:
        """Keep a batch's breaks, hits being the columns _score gives: each
        hit (lane k, message, released value, gcd(N, v - S)) becomes one
        entry of every break column, with plan plans[k], and is listed on
        the rows its plan touches: each row of plan_rows[k], or the one row
        plan_rows when it is an int (an order-1 row batch, whose plans are
        the range of its ids)."""
        p, q = self.key.p, self.key.q
        start = len(self.plans)
        lanes, messages, signatures, gcds = hits
        self.plans += map(plans.__getitem__, lanes)
        self.messages += map(self._messages.__getitem__, messages)
        self.signatures += signatures
        self.factors += [p if g == p else q for g in gcds]
        self.persistent += repeat(None, len(lanes))
        if plan_rows.__class__ is int:
            self.row_hits[plan_rows] += range(start, len(self.plans))
            return
        row_hits = self.row_hits
        for i, k in enumerate(lanes, start):
            for r in plan_rows[k]:
                row_hits[r].append(i)

    def report_breaks(self) -> _Breaks:
        """The breaks as a report keeps them, holding nothing else of the
        tally or its table: each packed plan decoded to its actions, once
        per lane, and listed the first _SUCCESSES_PER_ROW breaks, in order,
        whose plans start on each row, found among the breaks listed on
        that row."""
        ids, plans = self.ids, self.plans
        shift, mask, places, id_mask = ids.shift, ids.mask, ids.places, ids.id_mask
        first = places[0] + shift  # a plan shifted this far is its first id's rank
        labels = [(self.rows[r].site, self.rows[r].kind) for r in ids.by_id]  # by rank
        values = [self.table[r].values for r in ids.by_id]
        actions, source = [], None
        for plan in plans:
            if plan != source:  # a lane's breaks are consecutive and share its actions
                source, acts = plan, []
                for s in places:  # ActionIds.unpack, inline
                    a = plan >> s & id_mask
                    acts.append((*labels[a >> shift], values[a >> shift][a & mask]))
                decoded = tuple(acts)
            actions.append(decoded)
        listed = []
        for r, hits in self.row_hits.items():
            rank = ids.base[r] >> shift
            listed += islice((i for i in hits if plans[i] >> first == rank), _SUCCESSES_PER_ROW)
        return _Breaks(
            self.key.p, actions, self.messages, self.signatures,
            self.factors, self.persistent, sorted(listed),
        )

    def _score(self, faults: tuple) -> tuple[list[list], int, list[tuple]]:
        """Run one batch, faults being run_batch's arguments, on every
        message, and score each pass as a column (_column): (columns, none,
        hits). columns[i] is message i's values; none counts the runs with
        no output. hits is empty when no run leaks a factor, else four
        columns, one entry per run that does, in lane order, then message
        order: its lane, message, released value and gcd."""
        n, p, q = self.n, self.key.p, self.key.q
        columns, none, hits = [], 0, []
        for m, runner, sig in self.runs:
            values, ended, leaks = _column(n, p, q, runner.run_batch(*faults), sig)
            columns.append(values)
            none += ended
            hits += [(k, m, v, g) for k, v, g in leaks]
        hits.sort(key=itemgetter(0))  # stable: messages stay in order within a lane
        return columns, none, list(zip(*hits))

    def _faults(
        self, batch: list[IdPlan], redrawn: dict[int, int] | None = None
    ) -> tuple[tuple, list[list[int]]]:
        """run_batch's arguments for a batch of packed plans, and the rows
        each plan touches. An action on a row that redrawn maps takes that
        value instead of its own."""
        ids = self.ids
        by_id, shift, mask, places, id_mask = ids.by_id, ids.shift, ids.mask, ids.places, ids.id_mask
        sites, table = self._sites, self.table
        writes, reads, skips = defaultdict(list), defaultdict(list), defaultdict(list)
        plan_rows = []
        for lane, plan in enumerate(batch):
            rows = []
            for s in places:  # ActionIds.unpack, inline
                a = plan >> s & id_mask
                r = by_id[a >> shift]
                rows.append(r)
                i, slot, window = sites[r]
                if window:
                    for j in window:
                        skips[j].append(lane)
                    continue
                v = table[r].values[a & mask] or 0  # zero is randomize to 0
                if redrawn and r in redrawn:
                    v = redrawn[r]
                if slot is None:
                    writes[i].append((lane, v))
                else:
                    reads[i].append((lane, slot, v))
            plan_rows.append(rows)
        return (len(batch), writes, reads, skips), plan_rows


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
    tally.run(plans, spec.workers)
    first_regs = runs[0][1].baseline.regs()
    r_min = min(first_regs[r] for r in program.meta.r_regs) if program.meta.r_regs else None
    bound = (2 / r_min) if r_min else None
    _replay(tally, program, spec, bound)
    rows = _classify_rows(tally.rows, bound)
    report = _report(program, spec, runs, r_min, plans_total, sampled, rows, tally.report_breaks())
    report.lanes_run, report.lanes_booked = tally.ran, tally.lanes - tally.ran
    return report


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
            "max_skip_len or samples_per_site, or lower the order"
        )
    return plans, sampled, ids, total


def _replay(tally: _Tally, program: Program, spec: CampaignSpec, bound: float | None) -> None:
    """Probe successes as plan_persists does, keep each probed break's
    verdict by its index (tally.persistent), and set each row's persistent
    count.

    Fraction bands settle most randomize rows outright; the ambiguous
    middle band, the single-shot zero and skip rows, and every multi-fault
    plan get replayed under fresh seeds and messages instead. A persistent
    leak reproduces, so a handful of witnesses per row is enough to find one.

    The probes run round-major: round t takes the successes still pending,
    groups them by runner (the alternate message _alt_messages(N,
    message)[t % 2] under seed + _ALT_SEED_STEPS[t]), and runs each group
    as run_batch lanes, _BATCH at a time, gathered from the id plans by
    _Tally._faults and scored as one column each. At order >= 2 each
    randomize action takes its site's redrawn value for the round, drawn
    once per (site, round) from its table row's domain and nominal value.
    Only the lanes that still break go on to round t + 1, so a success is
    persistent when it breaks in every round: the verdict plan_persists
    gives its plan.
    """
    rows, messages = tally.rows, tally.messages
    need: set[int] = set()
    if spec.order > 1:
        need.update(range(len(messages)))
    else:
        for r, idxs in tally.row_hits.items():
            if rows[r].kind != "randomize":
                need.update(idxs)
            elif _band(rows[r], bound) is None:
                need.update(idxs[:_REPLAY_CAP])
    key, plans, table = spec.key, tally.plans, tally.table
    by_id, shift, unpack = tally.ids.by_id, tally.ids.shift, tally.ids.unpack
    n, p, q = tally.n, key.p, key.q
    alts = {m: _alt_messages(n, m) for m in {messages[i] for i in need}}
    replayed = pending = sorted(need)
    for t, step in enumerate(_ALT_SEED_STEPS):
        redrawn = {}
        if spec.order > 1:
            for r in {by_id[a >> shift] for i in pending for a in unpack(plans[i])}:
                row = table[r]
                if row.kind is FaultKind.RANDOMIZE:
                    redrawn[r] = _redrawn_value(row.site, row.domain, row.nominal, spec.seed, t)
        groups: dict[int, list[int]] = defaultdict(list)
        for i in pending:
            groups[alts[messages[i]][t % 2]].append(i)
        pending = []
        for m, group in groups.items():
            runner = _runner(program, key, m, spec.seed + step)
            for start in range(0, len(group), _BATCH):
                chunk = group[start : start + _BATCH]
                faults, _rows = tally._faults([plans[i] for i in chunk], redrawn)
                _values, _ended, leaks = _column(n, p, q, runner.run_batch(*faults), runner.signature)
                pending += [chunk[k] for k, _v, _g in leaks]
    survived, verdicts = set(pending), tally.persistent
    for i in replayed:
        verdicts[i] = i in survived
    for r, idxs in tally.row_hits.items():
        kept = [v for v in map(verdicts.__getitem__, idxs) if v is not None]
        if kept:
            rows[r].persistent = sum(kept)


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
    breaks: _Breaks,
) -> CampaignReport:
    key = spec.key
    totals = {
        "order": spec.order,
        "attempts": sum(r.attempts for r in rows),
        "successes_total": len(breaks.messages),
        "structural_rows": sum(1 for r in rows if r.classification == CLASS_STRUCTURAL),
        "collision_rows": sum(1 for r in rows if r.classification == CLASS_COLLISION),
        "persistent_successes": breaks.persistent.count(True),
    }
    spec_echo = {
        f.name: getattr(spec, f.name)
        for f in fields(spec)
        if f.name not in ("key", "program", "messages", "workers")
    }
    spec_echo.update(kinds=list(spec.kinds), p=str(key.p), q=str(key.q))
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
        breaks=breaks,
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
    band = _band(row, bound)
    if band is not None:
        return band
    if row.persistent == 0:
        return CLASS_COLLISION
    return CLASS_STRUCTURAL


def _band(row: SiteRow, bound: float | None) -> str | None:
    """The class a randomize row's success fraction settles by itself:
    structural at or above one half, collision at or below bound; None
    in between and for every other kind, which replay evidence decides."""
    if row.kind != "randomize":
        return None
    if row.fraction >= 0.5:
        return CLASS_STRUCTURAL
    if bound is not None and row.fraction <= bound:
        return CLASS_COLLISION
    return None


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
