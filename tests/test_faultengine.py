"""Campaign engine: plan spaces, scoring, reports, persistence probes."""

import gc
import hashlib
import json
import math
import random
import tracemalloc
import weakref
from array import array
from collections import Counter, defaultdict
from dataclasses import replace
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crtfi.circuit import (
    Crash,
    ErrorOut,
    FaultAction,
    FaultKind,
    FaultRunner,
    ProgramBuilder,
    ReadOf,
    Signature,
    SkipRange,
    WriteOf,
    dst_of,
    dump_program,
    enumerate_sites,
    execute,
    find_write,
    parse_dump,
    same_result,
)
from crtfi import faultengine
from crtfi.countermeasures import build, catalog, program_inputs
from crtfi.faultengine import (
    ActionIds,
    CampaignSpec,
    SiteActions,
    build_plans,
    check_skip_subsumption,
    plan_persists,
    replay_plan,
    run_campaign,
    site_action_table,
    site_domains,
    site_phase,
)
from crtfi.keytools import crt_from_rsa, derive_crt, gen_key
from crtfi.modmath import bellcore_extract, is_prime
from crtfi.transforms import harden, to_infective, to_testbased

TINY = derive_crt(7, 11, 43)


def plan_space_size(table, order):
    """Number of plans faulting `order` distinct sites of the table."""
    return faultengine._space_size(ActionIds(table).sizes, order)


def fault_plan(ids, plan):
    """The FaultAction tuple a packed plan stands for."""
    acts = []
    for a in ids.unpack(plan):
        t = ids.table[ids.by_id[a >> ids.shift]]
        acts.append(FaultAction(t.site, t.kind, t.values[a & ids.mask]))
    return tuple(acts)


def tiny_spec(**kw):
    base = dict(
        key=TINY, algo="unprotected", messages=(2,), order=1,
        kinds=("zero", "randomize"), r_bits=5, build_seed=0, seed=42,
    )
    base.update(kw)
    return CampaignSpec(**base)


def tiny_unprotected():
    return build("unprotected", TINY, r_bits=5, build_seed=0)


# ------------------------------------------------------------------- plan space


def test_order_one_runs_one_plan_per_action():
    prog = tiny_unprotected()
    value_sites = enumerate_sites(prog, 0)
    base = execute(prog, program_inputs(prog, TINY, 2), seed=42)
    doms = site_domains(prog, base.regs())

    rep_zero = run_campaign(tiny_spec(kinds=("zero",)))
    assert rep_zero.plans_total == len(value_sites) == 18

    # a randomize action per wrong value; a nominal outside the domain, as
    # happens for unreduced differences, disqualifies nothing
    expected = 0
    for site in value_sites:
        dom, nominal = doms[site]
        expected += dom - 1 if 0 <= nominal < dom else dom
    rep_rand = run_campaign(tiny_spec(kinds=("randomize",)))
    assert rep_rand.plans_total == expected == 412

    windows = [s for s in enumerate_sites(prog, 2) if isinstance(s, SkipRange)]
    rep_skip = run_campaign(tiny_spec(kinds=("skip",)))
    assert rep_skip.plans_total == len(windows) == 13


def test_order_two_pairs_distinct_sites():
    rep = run_campaign(tiny_spec(order=2, kinds=("zero",)))
    assert rep.plans_total == 18 * 17 // 2
    assert not rep.sampled_plans


def test_higher_order_plans_never_fault_a_site_twice():
    # zero and randomize give each value site two table rows; a plan takes one
    shamir = build("shamir", TINY, r_bits=5, build_seed=0)
    for prog, kw in (
        (tiny_unprotected(), dict(order=2, exhaustive_threshold=2, samples_per_site=1)),
        (shamir, dict(algo="shamir", order=2, plan_limit=100)),
        (shamir, dict(algo="shamir", order=3, plan_limit=100)),
    ):
        spec = tiny_spec(**kw)
        table = site_action_table(prog, spec)
        plans, sampled, ids = build_plans(prog, spec, table)
        assert plans
        for plan in plans:
            assert len({a.site for a in fault_plan(ids, plan)}) == spec.order, plan
        if not sampled:
            # 18 sites with two actions each: C(18, 2) * 2 * 2
            assert len(plans) == plan_space_size(table, spec.order) == 612


# The FaultAction plan code that integer action ids replaced, kept as the
# reference: ids must decode to exactly these plans, in this order.


def reference_site_groups(table):
    groups = {}
    for t in table:
        groups.setdefault(t.site, []).append(t)
    return list(groups.values())


def reference_nth_action(group, k):
    for t in group:
        if k < len(t.values):
            return FaultAction(t.site, t.kind, t.values[k])
        k -= len(t.values)
    raise IndexError(k)


def reference_action_product(combo):
    if not combo:
        yield ()
        return
    head = [FaultAction(t.site, t.kind, v) for t in combo[0] for v in t.values]
    for tail in reference_action_product(combo[1:]):
        for a in head:
            yield (a,) + tail


def reference_plan_sort_key(plan):
    def skey(a):
        s = a.site
        if isinstance(s, WriteOf):
            t = (0, s.index, 0)
        elif isinstance(s, ReadOf):
            t = (1, s.index, s.slot)
        else:
            t = (2, s.first, s.last)
        return t + (a.kind.value, -1 if a.value is None else a.value)

    return tuple(skey(a) for a in plan)


def reference_plans(spec, table):
    groups = reference_site_groups(table)
    if plan_space_size(table, spec.order) <= spec.plan_limit:
        return [p for combo in combinations(groups, spec.order) for p in reference_action_product(combo)]
    sizes = [sum(len(t.values) for t in g) for g in groups]
    rng = random.Random((spec.seed * 0x9E3779B1 + spec.order) & 0xFFFFFFFFFFFF)
    plans = set()
    guard = 0
    while len(plans) < spec.plan_limit:
        guard += 1
        if guard > spec.plan_limit * 50:
            break
        picks = rng.sample(range(len(groups)), spec.order)
        plans.add(tuple(reference_nth_action(groups[i], rng.randrange(sizes[i])) for i in sorted(picks)))
    return sorted(plans, key=reference_plan_sort_key)


ALL_KINDS = dict(kinds=("zero", "randomize", "skip"), max_skip_len=2, r_bits=5)
CATALOG = {e.algo: build(e.algo, TINY, r_bits=5, build_seed=0) for e in catalog()}


def all_kinds_table(algo, **kw):
    spec = CampaignSpec(key=TINY, program=CATALOG[algo], messages=(2,), **ALL_KINDS, **kw)
    return spec, site_action_table(CATALOG[algo], spec)


@pytest.mark.parametrize("algo", sorted(CATALOG))
def test_action_ids_ascend_in_plan_order_and_decode_as_the_reference(algo):
    _spec, table = all_kinds_table(algo, exhaustive_threshold=64, samples_per_site=8)
    ids = ActionIds(table)
    assert sum(ids.sizes) == sum(len(t.values) for t in table)
    # row r's value k has the id base[r] + k and decodes back to that action
    for r, t in enumerate(table):
        for k, v in enumerate(t.values):
            assert fault_plan(ids, ids.base[r] + k) == (FaultAction(t.site, t.kind, v),)
    real = sorted(ids.base[r] + k for r, t in enumerate(table) for k in range(len(t.values)))
    keys = [reference_plan_sort_key(fault_plan(ids, a)) for a in real]
    assert all(a < b for a, b in zip(keys, keys[1:]))
    for g, group in enumerate(reference_site_groups(table)):
        for k in range(ids.sizes[g]):
            assert fault_plan(ids, ids.nth(g, k)) == (reference_nth_action(group, k),)


def assert_plans_are_the_reference(prog, spec, table, sampled):
    plans, was_sampled, ids = build_plans(prog, spec, table)
    assert was_sampled == sampled
    assert [fault_plan(ids, p) for p in plans] == reference_plans(spec, table)
    return plans


@pytest.mark.parametrize("algo", sorted(CATALOG))
def test_id_plans_decode_to_the_reference_plan_lists(algo):
    prog = CATALOG[algo]
    spec, table = all_kinds_table(algo, exhaustive_threshold=64, samples_per_site=8)
    # Random.sample swap-removes from a pool of up to 21 sites (85 at
    # order 6) and redraws picked sites above that: the whole table takes
    # the set branch at orders 2-5, and the first n sites each side of the
    # two bounds
    sites = list(dict.fromkeys(t.site for t in table))
    assert len(sites) > 21
    for order in range(2, 7):
        assert_plans_are_the_reference(prog, replace(spec, order=order, plan_limit=300), table, True)
    for n, order in ((21, 2), (22, 2), (85, 6), (86, 6)):
        if n <= len(sites):
            first = set(sites[:n])
            part = [t for t in table if t.site in first]
            assert_plans_are_the_reference(prog, replace(spec, order=order, plan_limit=300), part, True)
    # 12 sites spread across a table with one or two values per site
    # (writes, reads and skip windows alike): whole spaces, and samples
    # drawn by Random.sample's swap-remove pool branch
    spec, table = all_kinds_table(algo, exhaustive_threshold=2, samples_per_site=1)
    sites = list(dict.fromkeys(t.site for t in table))
    sites = sites[:: len(sites) // 12][:12]
    table = [t for t in table if t.site in sites]
    for order in (2, 3):
        whole_spec = replace(spec, order=order, plan_limit=10**6)
        plans = assert_plans_are_the_reference(prog, whole_spec, table, False)
        assert len(plans) == plan_space_size(table, order)
    for order in range(2, 7):
        limit = min(plan_space_size(table, order) // 2, 300)
        assert_plans_are_the_reference(prog, replace(spec, order=order, plan_limit=limit), table, True)


def test_sampling_gives_up_at_the_guard_as_the_reference_does():
    # one 64-action site and 20 one-action sites at order 2: plans on the big
    # site are rare, so plan_limit = space - 1 distinct plans are not found
    # in 50 * plan_limit draws
    prog = CATALOG["vigilant"]
    spec, table = all_kinds_table("vigilant", exhaustive_threshold=64, samples_per_site=8)
    ids = ActionIds(table)
    sites = list(dict.fromkeys(t.site for t in table))
    big = sites[ids.sizes.index(64)]
    keep = {big, *[s for s, n in zip(sites, ids.sizes) if n == 1][:20]}
    table = [t for t in table if t.site in keep]
    spec = replace(spec, order=2, plan_limit=plan_space_size(table, 2) - 1)
    plans = assert_plans_are_the_reference(prog, spec, table, True)
    assert len(plans) < spec.plan_limit


# build_plans as it was while plans were tuples of action ids, kept as the
# reference: packed plans must unpack to exactly these tuples, in this order


def reference_id_plans(spec, table, ids):
    order, limit = spec.order, spec.plan_limit
    sizes = ids.sizes
    if plan_space_size(table, order) <= limit:
        per_site = [[ids.nth(g, k) for k in range(n)] for g, n in enumerate(sizes)]
        return [plan[::-1] for combo in combinations(per_site, order) for plan in product(*combo[::-1])]
    rng = random.Random((spec.seed * 0x9E3779B1 + order) & 0xFFFFFFFFFFFF)
    bits = rng.getrandbits
    n_sites = len(sizes)
    setsize = 21 + (4 ** math.ceil(math.log(order * 3, 4)) if order > 5 else 0)
    pooled = n_sites <= setsize
    site_bits = n_sites.bit_length()
    draws = [(n, n.bit_length(), *span) for n, span in zip(sizes, ids.spans)]
    plans_set = set()
    guard = 0
    while len(plans_set) < limit:
        guard += 1
        if guard > limit * 50:
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
            picked = set()
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
    return sorted(plans_set)


def assert_packed_plans_are_the_reference_tuples(prog, spec, table, sampled):
    plans, was_sampled, ids = build_plans(prog, spec, table)
    assert was_sampled == sampled
    assert all(type(plan) is int for plan in plans)
    assert [tuple(ids.unpack(plan)) for plan in plans] == reference_id_plans(spec, table, ids)
    return plans


def twelve_spread_sites(table):
    """The rows of 12 sites spread evenly across the table."""
    sites = list(dict.fromkeys(t.site for t in table))
    spread = set(sites[:: len(sites) // 12][:12])
    return [t for t in table if t.site in spread]


@pytest.mark.parametrize("algo", sorted(CATALOG))
def test_packed_plans_unpack_to_the_tuple_plans_in_order(algo):
    prog = CATALOG[algo]
    # sampled: the whole table (Random.sample's set branch), and 12 sites
    # spread across it (its pool branch)
    spec, table = all_kinds_table(algo, exhaustive_threshold=64, samples_per_site=8)
    part = twelve_spread_sites(table)
    for order in (2, 3):
        assert_packed_plans_are_the_reference_tuples(prog, replace(spec, order=order, plan_limit=300), table, True)
        limit = min(plan_space_size(part, order) // 2, 300)
        assert_packed_plans_are_the_reference_tuples(prog, replace(spec, order=order, plan_limit=limit), part, True)
    # whole: 12 spread sites of up to four actions each
    spec, table = all_kinds_table(algo, exhaustive_threshold=4, samples_per_site=2)
    part = twelve_spread_sites(table)
    for order in (2, 3):
        plans = assert_packed_plans_are_the_reference_tuples(prog, replace(spec, order=order, plan_limit=10**6), part, False)
        assert len(plans) == plan_space_size(part, order)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 2000), min_size=1, max_size=40), st.integers(1, 6), st.data())
def test_packing_preserves_tuple_order_and_round_trips(counts, order, data):
    # one randomize row per write site, holding counts[i] values: the width
    # ActionIds derives ranges from 1 to 17 bits
    table = [
        SiteActions(WriteOf(i), FaultKind.RANDOMIZE, array("q", range(n)), True, n + 1, n)
        for i, n in enumerate(counts)
    ]
    ids = ActionIds(table, order)
    every = [ids.base[r] + k for r, n in enumerate(counts) for k in range(n)]
    assert max(every) < 1 << ids.width  # the width covers every id

    def pack(plan):
        packed = 0
        for a in plan:
            packed = packed << ids.width | a
        return packed

    tuples = data.draw(st.lists(st.tuples(*[st.sampled_from(every)] * order), max_size=60))
    packed = list(map(pack, tuples))
    assert [tuple(ids.unpack(plan)) for plan in packed] == tuples
    assert sorted(packed) == list(map(pack, sorted(tuples)))
    assert len(set(packed)) == len(set(tuples))


# memory budgets, with wide margins: tuples of ids held about 245 bytes per
# order-5 plan and tuples of ints about 38 bytes per whole-domain value
PLAN_BYTES, VALUE_BYTES = 64, 12
WIDE = crt_from_rsa(gen_key(8, 2))


def _traced(make):
    """make() and the bytes it allocated that are still live when it returns."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = make()
        return out, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_a_sampled_order_five_plan_list_holds_one_packed_int_a_plan():
    spec = CampaignSpec(
        key=WIDE, algo="vigilant", messages=(2,), order=5, kinds=("randomize",), r_bits=5,
        exhaustive_threshold=8192, plan_limit=10_000,
    )
    prog = build("vigilant", WIDE, r_bits=5, build_seed=0)
    table = site_action_table(prog, spec)
    (plans, sampled, _ids), size = _traced(lambda: build_plans(prog, spec, table))
    assert sampled and len(plans) == 10_000
    assert size <= PLAN_BYTES * len(plans), size / len(plans)


def test_a_whole_domain_row_holds_eight_bytes_a_value():
    # one sampled value per sampled row, so nearly every byte is a whole
    # row's; most of their values are past the interpreter's small ints
    spec = CampaignSpec(
        key=WIDE, algo="aumuller", messages=(2,), kinds=("randomize",), r_bits=5,
        exhaustive_threshold=16384, samples_per_site=1,
    )
    prog = build("aumuller", WIDE, r_bits=5, build_seed=0)
    site_action_table(prog, spec)  # the first message's runner, kept on the program
    table, size = _traced(lambda: site_action_table(prog, spec))
    values = sum(len(t.values) for t in table if t.exhaustive)
    assert values > 100_000
    assert size <= VALUE_BYTES * values, size / values


@pytest.mark.parametrize("algo", sorted(CATALOG))
def test_sampled_site_values_are_the_random_randrange_draws(algo):
    # site_action_table makes randrange's getrandbits calls itself; the
    # reference is the draw loop through random.Random.randrange
    prog = CATALOG[algo]
    for threshold, samples in ((64, 8), (8, 64), (2, 1)):
        spec, table = all_kinds_table(algo, exhaustive_threshold=threshold, samples_per_site=samples)
        domains = site_domains(prog, execute(prog, program_inputs(prog, TINY, 2), seed=spec.seed).regs())
        sampled = [t for t in table if not t.exhaustive]
        assert sampled
        for t in sampled:
            dom, nominal = domains[t.site]
            rng = faultengine._site_sample_rng(spec, t.site.key(prog))
            picked = set()
            while len(picked) < min(spec.samples_per_site, dom - 1):
                v = rng.randrange(dom)
                if v != nominal:
                    picked.add(v)
            assert t.values == tuple(sorted(picked))


def test_sampled_plans_build_fault_actions_only_for_replayed_successes(monkeypatch):
    built = {"campaign": 0, "probe": 0}
    probing = []
    post_init = FaultAction.__post_init__

    def counting_post_init(self):
        built["probe" if probing else "campaign"] += 1
        post_init(self)

    replay = faultengine._replay

    def probe(*args, **kw):
        probing.append(True)
        try:
            return replay(*args, **kw)
        finally:
            probing.pop()

    monkeypatch.setattr(FaultAction, "__post_init__", counting_post_init)
    monkeypatch.setattr(faultengine, "_replay", probe)
    spec = tiny_spec(algo="shamir", order=3, plan_limit=300, **ALL_KINDS)
    rep = run_campaign(spec)
    assert rep.sampled_plans and rep.plans_total == 300
    # order >= 2 replays every success, re-drawing its randomize actions
    assert all(s.persistent is not None for s in rep.successes)
    assert any(kind == "randomize" for s in rep.successes for _site, kind, _v in s.actions)
    # the replay pass gathers its lanes from the id plans, as the tally
    # does, so neither builds a FaultAction
    assert built == {"campaign": 0, "probe": 0}


def test_order_one_builds_fault_actions_only_for_replayed_successes(monkeypatch):
    built = []
    post_init = FaultAction.__post_init__

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(FaultAction, "__post_init__", counting_post_init)
    rep = run_campaign(tiny_spec(algo="shamir", **ALL_KINDS))
    replayed = [s for s in rep.successes if s.persistent is not None]
    # the fraction bands settle some rows, so not every success is replayed
    assert 0 < len(replayed) < len(rep.successes)
    # the replayed successes' lanes come from their id plans, as the tally's do
    assert built == []


def test_oversized_spaces_sample_down_to_the_limit():
    rep = run_campaign(tiny_spec(order=2, plan_limit=100))
    assert rep.sampled_plans
    assert rep.plans_total == 100


def test_default_probe_messages_bracket_the_modulus():
    rep = run_campaign(tiny_spec(messages=()))
    assert rep.messages == (2, 3, 75)


def test_summary_line_is_one_stable_row():
    rep = run_campaign(tiny_spec(kinds=("zero",)))
    assert rep.summary_line == "algo=unprotected order=1 plans=18 breaks=15 collisions=0"


# --------------------------------------------------------------------- scoring


def test_every_reported_success_replays_to_the_same_factor():
    rep = run_campaign(tiny_spec())
    assert rep.successes
    prog = tiny_unprotected()
    by_key = {s.key(prog): s for s in enumerate_sites(prog, 2)}
    for s in rep.successes:
        plan = tuple(
            FaultAction(by_key[site_key], FaultKind(kind), value)
            for site_key, kind, value in s.actions
        )
        result, broke, factor = replay_plan(prog, TINY, s.message, plan, 42)
        assert broke
        assert factor == s.factor
        assert factor in (7, 11)
        assert 77 % factor == 0 and is_prime(factor)
        assert isinstance(result, Signature) and result.value == s.signature


def test_factor_side_matches_the_injured_branch():
    rep = run_campaign(tiny_spec(kinds=("zero",)))
    rows = {r.site: r for r in rep.rows}
    # p-branch faults leave the q residue intact, and the gcd then pulls q
    assert rows["W6:sp"].factor_q == 1 and rows["W6:sp"].factor_p == 0
    assert rows["W7:sq"].factor_p == 1 and rows["W7:sq"].factor_q == 0
    assert rows["W6:sp"].classification == "structural-break"
    # zeroing a modulus operand kills the run instead of the signature
    for site in ("R6.2:p", "R7.2:q", "R9.2:p"):
        assert rows[site].no_output == 1
        assert rows[site].successes == 0
        assert rows[site].classification == "none"


def test_site_domains_follow_the_governing_modulus():
    prog = tiny_unprotected()
    base = execute(prog, program_inputs(prog, TINY, 2), seed=42)
    domains = site_domains(prog, base.regs())
    doms = {s.key(prog): (d, n) for s, (d, n) in domains.items()}
    assert doms["W6:sp"] == (7, 2)
    assert doms["W7:sq"] == (11, 8)
    # reads inherit the writer's ring
    assert doms["R8.0:sp"][0] == 7
    assert doms["R8.1:sq"][0] == 11
    # a modulus operand and an unreduced product fall back to a width envelope
    assert doms["R7.2:q"][0] == 64
    assert doms["W10:s_t"][0] == 128
    # the half-difference may sit below zero before reduction
    assert doms["W8:s_d"] == (8, -6)
    # the table's rows carry the same (domain, nominal), which the replay
    # pass redraws from; a skip row has neither
    spec = tiny_spec(exhaustive_threshold=16, samples_per_site=4, **ALL_KINDS)
    table = site_action_table(prog, spec)
    assert {t.kind for t in table} == set(FaultKind) and not all(t.exhaustive for t in table)
    for t in table:
        if t.kind is FaultKind.SKIP:
            assert (t.domain, t.nominal) == (None, None), t
        else:
            assert (t.domain, t.nominal) == domains[t.site], t


@pytest.mark.parametrize("order", [1, 2])
def test_a_campaign_reads_the_site_domains_once(monkeypatch, order):
    calls = []

    def counted(*args):
        calls.append(args)
        return site_domains(*args)

    monkeypatch.setattr(faultengine, "site_domains", counted)
    rep = run_campaign(tiny_spec(order=order, kinds=("randomize",), plan_limit=200))
    # order 2 replays its successes with every randomize value redrawn
    assert any(s.persistent is not None for s in rep.successes)
    assert len(calls) == 1


# ----------------------------------------------------------------- persistence


def test_structural_breaks_persist_and_collisions_do_not():
    prog = tiny_unprotected()
    plan = (FaultAction(WriteOf(find_write(prog, "sq")), FaultKind.ZERO, None),)
    assert plan_persists(prog, TINY, 2, plan, 42)
    result, broke, factor = replay_plan(prog, TINY, 2, plan, 42)
    assert (result, broke, factor) == (Signature(44), True, 7)

    # accidental subring hits on an infected program evaporate under the
    # probe's alternate messages
    isf = to_infective(build("straightforward", TINY, r_bits=5, build_seed=0))
    wi = find_write(isf, "sp")
    good = execute(isf, program_inputs(isf, TINY, 2), seed=3).result.value
    hits = []
    for v in range(77):
        if v == pow(2, TINY.dp, TINY.p):
            continue
        plan = (FaultAction(WriteOf(wi), FaultKind.RANDOMIZE, v),)
        res = execute(isf, program_inputs(isf, TINY, 2), seed=3, plan=plan).result
        if isinstance(res, Signature) and bellcore_extract(77, good, res.value, 7, 11).success:
            hits.append(plan)
    assert len(hits) == 22
    assert not any(plan_persists(isf, TINY, 2, plan, 3) for plan in hits)


def _first_miss(prog, message, plan, redraw, seed=42):
    """How plan_persists' rounds end for a plan: the result of the first
    round that does not break, or None when every round breaks."""
    alts = faultengine._alt_messages(TINY.p * TINY.q, message)
    for t, step in enumerate(faultengine._ALT_SEED_STEPS):
        plan_t = faultengine._redrawn_plan(plan, redraw, seed, t)
        result, broke, _factor = replay_plan(prog, TINY, alts[t % 2], plan_t, seed + step)
        if not broke:
            return result
    return None


@pytest.fixture(scope="module")
def probed():
    """Every success a campaign probes, on each catalog program at order 1
    (all kinds: nothing is re-drawn) and at order 2 (randomize: every
    action is re-drawn), as (order, success, plan_persists' verdict on its
    plan, how its rounds end as _first_miss gives it)."""
    out = []
    for order, kw in ((1, ALL_KINDS), (2, dict(kinds=("randomize",), r_bits=5, plan_limit=200))):
        for algo, prog in CATALOG.items():
            spec = CampaignSpec(
                key=TINY, program=prog, order=order, exhaustive_threshold=16, samples_per_site=4, **kw
            )
            rep = run_campaign(spec)
            first = faultengine._messages_of(spec)[0]
            first_regs = execute(prog, program_inputs(prog, TINY, first), seed=spec.seed).regs()
            redraw = site_domains(prog, first_regs) if order > 1 else None
            sites = {site.key(prog): site for site in enumerate_sites(prog, spec.max_skip_len)}
            for s in rep.successes:
                if s.persistent is not None:
                    plan = tuple(FaultAction(sites[k], FaultKind(kind), v) for k, kind, v in s.actions)
                    verdict = plan_persists(prog, TINY, s.message, plan, spec.seed, redraw=redraw)
                    out.append((order, s, verdict, _first_miss(prog, s.message, plan, redraw)))
    return out


def test_batched_replay_verdicts_are_plan_persists_verdicts(probed):
    for order in (1, 2):
        verdicts = [(s.persistent, verdict) for o, s, verdict, _end in probed if o == order]
        assert {v for _p, v in verdicts} == {True, False}
        assert all(persistent is verdict for persistent, verdict in verdicts)


def test_a_success_whose_replay_ends_without_output_is_not_persistent(probed):
    # some round of these lanes ends at a check (ErrorOut) or a crash
    for order in (1, 2):
        ends = [
            (s, verdict, end)
            for o, s, verdict, end in probed
            if o == order and isinstance(end, (ErrorOut, Crash))
        ]
        assert {type(end) for _s, _v, end in ends} == {ErrorOut, Crash}
        assert all(s.persistent is False and verdict is False for s, verdict, _end in ends)


@pytest.mark.parametrize("order", [1, 2])
def test_replay_runs_each_round_in_batches_per_alternate_message(monkeypatch, order):
    size = 8
    monkeypatch.setattr(faultengine, "_BATCH", size)
    replaying, runs, passes = [], [], defaultdict(list)
    replay, run, run_batch = faultengine._replay, FaultRunner.run, FaultRunner.run_batch

    def in_replay(*args, **kw):
        replaying.append(True)
        return replay(*args, **kw)

    def counting_run(self, plan):
        if replaying:
            runs.append(plan)
        return run(self, plan)

    def counting_run_batch(self, lanes, *faults):
        if replaying:
            passes[self._env[1], self.baseline.regs()["m"]].append(lanes)
        return run_batch(self, lanes, *faults)

    monkeypatch.setattr(faultengine, "_replay", in_replay)
    monkeypatch.setattr(FaultRunner, "run", counting_run)
    monkeypatch.setattr(FaultRunner, "run_batch", counting_run_batch)
    spec = tiny_spec(algo="shamir", messages=(2, 3, 75), order=order, plan_limit=300, **ALL_KINDS)
    rep = run_campaign(spec)
    replayed = [s for s in rep.successes if s.persistent is not None]
    assert replayed and not runs
    steps = faultengine._ALT_SEED_STEPS
    assert {seed for seed, _m in passes} <= {spec.seed + step for step in steps}
    # each (round, alternate message) runs its pending lanes _BATCH at a time
    for lanes in passes.values():
        assert len(lanes) <= -(-sum(lanes) // size) and max(lanes) <= size
    assert any(len(lanes) > 1 for lanes in passes.values())
    # round 0 takes every replayed success, on its first alternate message;
    # a round takes no more lanes than the round before it
    alts = {m: faultengine._alt_messages(77, m)[0] for m in spec.messages}
    first = {m: sum(lanes) for (seed, m), lanes in passes.items() if seed == spec.seed + steps[0]}
    want = defaultdict(int)
    for s in replayed:
        want[alts[s.message]] += 1
    assert first == want
    totals = [
        sum(sum(lanes) for (seed, _m), lanes in passes.items() if seed == spec.seed + step) for step in steps
    ]
    assert totals == sorted(totals, reverse=True) and totals[0] == len(replayed)


def test_random_draw_sites_are_phase_flagged():
    sh = build("shamir", TINY, r_bits=5, build_seed=0)
    ridx = find_write(sh, "r")
    assert site_phase(sh, WriteOf(ridx)) == "rng"
    rep = run_campaign(tiny_spec(algo="shamir", kinds=("zero", "randomize")))
    rng_rows = [r for r in rep.rows if r.phase == "rng"]
    assert any(r.site == f"W{ridx}:r" for r in rng_rows)
    # the opt-out filter can only shrink the persistent list
    with_rng = rep.persistent_successes(include_rng=True)
    without = rep.persistent_successes(include_rng=False)
    assert len(without) <= len(with_rng)
    kept = {(s.message, s.actions) for s in without}
    assert kept <= {(s.message, s.actions) for s in with_rng}


def test_a_dump_without_phases_tags_every_row_main():
    dump = dump_program(build("aumuller", TINY, r_bits=5, build_seed=0))
    lines = dump.splitlines(keepends=True)
    stripped = "".join(line for line in lines if not line.startswith("# phases "))
    assert len(stripped.splitlines()) == len(lines) - 1
    spec = dict(
        key=TINY, messages=(2, 3), kinds=("zero", "randomize", "skip"),
        exhaustive_threshold=64, samples_per_site=8, r_bits=5,
    )
    rows = run_campaign(CampaignSpec(program=parse_dump(dump), **spec)).rows
    bare = run_campaign(CampaignSpec(program=parse_dump(stripped), **spec)).rows
    assert len({r.phase for r in rows}) > 1
    assert {r.phase for r in bare} == {"main"}
    assert bare == [replace(r, phase="main") for r in rows]


# ----------------------------------------------------------------- subsumption


# programs whose witnesses are also checked against a second, zero fault
COMPOSED = ("straightforward", "giraud-sketch", "shamir", "to_infective(straightforward)")


def test_skip_faults_reduce_to_value_faults():
    windows = composed = 0
    for key in (TINY, crt_from_rsa(gen_key(8, 2)), crt_from_rsa(gen_key(8, 5))):
        # the catalog and every kind of rewrite result
        progs = {e.algo: build(e.algo, key, r_bits=5, build_seed=0) for e in catalog()}
        progs["harden(aumuller-infective,2)"] = harden(progs["aumuller-infective"], 2)
        progs["harden(shamir,2)"] = harden(progs["shamir"], 2)
        progs["to_infective(straightforward)"] = to_infective(progs["straightforward"])
        progs["to_testbased(aumuller-infective)"] = to_testbased(progs["aumuller-infective"])
        progs["to_testbased(blomer)"] = to_testbased(progs["blomer"])
        for name, prog in progs.items():
            rows = check_skip_subsumption(prog, key, 3, 2, 42)
            n = len(prog.instrs)
            assert len(rows) == n + (n - 1) + (n - 2)
            windows += len(rows)
            inputs = program_inputs(prog, key, 2)
            data = enumerate_sites(prog) if key is TINY and name in COMPOSED else []
            for r in rows:
                assert r.matched, (name, key.p, key.q, r.window)
                sites = [act.site for act in r.witness]
                assert len(set(sites)) == len(sites), (name, r.window)
                assert not any(isinstance(site, SkipRange) for site in sites)
                skip = (FaultAction(SkipRange(*r.window), FaultKind.SKIP),)
                assert same_result(
                    execute(prog, inputs, 42, r.witness).result,
                    execute(prog, inputs, 42, skip).result,
                ), (name, r.window)
                # the witness composes: a zero on a data site it does not
                # name, off the window's indices, added to both, keeps them
                # agreeing
                first, last = r.window
                for site in data:
                    if site in sites or first <= site.index <= last:
                        continue
                    zero = (FaultAction(site, FaultKind.ZERO),)
                    assert same_result(
                        execute(prog, inputs, 42, r.witness + zero).result,
                        execute(prog, inputs, 42, skip + zero).result,
                    ), (name, r.window, site)
                    composed += 1
    assert windows == 6120
    assert composed == 17221


# --------------------------------------------------------------------- reports


@pytest.fixture
def batches(monkeypatch):
    """What a campaign's tally runs: the FaultAction plans of each batch
    whose fault lists _Tally gathers from its action ids, and each run_batch
    pass as (message, lane count, its non-empty fault lists)."""
    seen = {"gathered": [], "passes": []}
    faults, run_batch = faultengine._Tally._faults, FaultRunner.run_batch

    def gathering(self, batch):
        seen["gathered"].append([fault_plan(self.ids, plan) for plan in batch])
        return faults(self, batch)

    def passing(self, lanes, writes, reads, skips):
        faults = {k: dict(v) for k, v in (("writes", writes), ("reads", reads), ("skips", skips)) if v}
        seen["passes"].append((self.baseline.regs()["m"], lanes, faults))
        return run_batch(self, lanes, writes, reads, skips)

    monkeypatch.setattr(faultengine._Tally, "_faults", gathering)
    monkeypatch.setattr(FaultRunner, "run_batch", passing)
    # the replay pass's batches come after every tally batch: stop there
    replay = faultengine._replay

    def replaying(*args, **kw):
        monkeypatch.setattr(faultengine._Tally, "_faults", faults)
        monkeypatch.setattr(FaultRunner, "run_batch", run_batch)
        return replay(*args, **kw)

    monkeypatch.setattr(faultengine, "_replay", replaying)
    return seen


def test_a_campaign_decodes_each_plan_once_for_all_messages(batches):
    # order 2 runs the plan list in batches; this spec's space is enumerated whole
    # one process: a forked child's calls never reach the fixture
    spec = tiny_spec(messages=(2, 3, 5), order=2, kinds=("zero", "skip"), workers=1)
    rep = run_campaign(spec)
    assert not rep.sampled_plans
    table = site_action_table(tiny_unprotected(), spec)
    plans, _sampled, ids = build_plans(tiny_unprotected(), spec, table)
    # the plans in order, in batches of _BATCH, each gathered once
    size = faultengine._BATCH
    assert batches["gathered"] == [
        [fault_plan(ids, p) for p in plans[s : s + size]] for s in range(0, len(plans), size)
    ]
    assert len(plans) == rep.plans_total > size  # two batches, the last one short
    # one pass per batch and message, message by message
    assert [(m, lanes) for m, lanes, _faults in batches["passes"]] == [
        (m, len(batch)) for batch in batches["gathered"] for m in spec.messages
    ]
    assert rep.totals["attempts"] == 2 * 3 * rep.plans_total


def _stored_at(prog, inputs, seed, j, plan):
    """What instruction j stores when prog runs under plan, None where the
    run ends at j (reference: execute's trace)."""
    return dict((i, v) for i, _reg, v in execute(prog, inputs, seed=seed, plan=plan).trace).get(j)


def reference_group_outputs(prog, inputs, seed, table, rows):
    """The values an instruction group's rows (_output_groups) make its
    instruction j store, but j's baseline value and the read lanes that end
    at j: a write lane's value, a read lane's value as execute stores it."""
    j = table[rows[0]].site.index
    outs = set()
    for r in rows:
        t = table[r]
        for v in t.values:
            if isinstance(t.site, WriteOf):
                outs.add(v or 0)
            else:
                u = _stored_at(prog, inputs, seed, j, (FaultAction(t.site, FaultKind.RANDOMIZE, v or 0),))
                if u is not None:
                    outs.add(u)
    return outs - {_stored_at(prog, inputs, seed, j, ())}


def test_order_one_runs_each_row_in_batches_of_its_actions(batches, monkeypatch):
    monkeypatch.setattr(faultengine, "_BATCH", 4)  # to split outputs, rows and the 18 skip windows
    # one process: a forked child's calls never reach the fixture
    spec = tiny_spec(
        algo="straightforward", messages=(2, 3, 5), kinds=("zero", "randomize", "skip"), max_skip_len=1, workers=1
    )
    rep = run_campaign(spec)
    prog = CATALOG["straightforward"]
    table = site_action_table(prog, spec)
    twins = faultengine._twin_rows(prog.compiled, table)
    groups = faultengine._output_groups(prog.compiled, table)
    size = faultengine._BATCH
    checks = {r for r, t in enumerate(table) if t.kind is not FaultKind.SKIP and r not in groups}
    skips = [t for t in table if t.kind is FaultKind.SKIP]
    assert len(skips) % size and max(len(table[r].values) for r in checks) > size
    assert twins and all(isinstance(table[r].site, ReadOf) for r in twins)
    assert all(isinstance(table[r].site, ReadOf) and dst_of(prog.instrs[table[r].site.index]) is None for r in checks)
    # an instruction group's first row runs the group's distinct outputs
    # but the baseline value, each once per message, as write lanes at its
    # instruction in batches, and decodes no id; a check's read row's
    # batches take its values in order, zero being randomize to 0, and
    # decode no id; a twin read row and a group's later rows run nothing;
    # the skip rows, last in the table, are gathered from their action ids
    passes = iter(batches["passes"])
    for r, t in enumerate(table):
        if groups.get(r) == r:
            j = t.site.index
            # a twin read row in the group has its write row's values
            own = [g for g in groups if groups[g] == r and g not in twins]
            for m in spec.messages:
                want = reference_group_outputs(prog, program_inputs(prog, TINY, m), spec.seed, table, own)
                got = []
                for _ in range(-(-len(want) // size)):
                    pm, lanes, faults = next(passes)
                    assert (pm, list(faults), list(faults["writes"])) == (m, ["writes"], [j])
                    assert [k for k, _u in faults["writes"][j]] == list(range(lanes))
                    got += [u for _k, u in faults["writes"][j]]
                assert sorted(got) == sorted(want)
        elif r in checks:
            for s in range(0, len(t.values), size):
                lanes = list(enumerate(v or 0 for v in t.values[s : s + size]))
                reads = [(k, t.site.slot, v) for k, v in lanes]
                for m in spec.messages:
                    assert next(passes) == (m, len(lanes), {"reads": {t.site.index: reads}})
    skip_batches = [skips[s : s + size] for s in range(0, len(skips), size)]
    for batch in skip_batches:
        for m in spec.messages:
            assert next(passes) == (m, len(batch), {"skips": {t.site.first: [k] for k, t in enumerate(batch)}})
    assert next(passes, None) is None
    assert batches["gathered"] == [[(FaultAction(t.site, t.kind),) for t in b] for b in skip_batches]
    assert rep.plans_total == plan_space_size(table, 1)
    assert rep.totals["attempts"] == 3 * rep.plans_total


def _row_faults(t):
    """run_batch's arguments for every value of one zero or randomize row."""
    lanes = list(enumerate(v or 0 for v in t.values))
    if isinstance(t.site, WriteOf):
        return len(lanes), {t.site.index: lanes}, {}, {}
    return len(lanes), {}, {t.site.index: [(k, t.site.slot, v) for k, v in lanes]}, {}


@pytest.mark.parametrize("seed, pairs", [(2, 348), (5, 346)])
def test_a_twin_read_row_runs_as_its_write_row(seed, pairs):
    key = crt_from_rsa(gen_key(8, seed))
    n = key.p * key.q
    found = 0
    for entry in catalog():
        prog = build(entry.algo, key, r_bits=5, build_seed=0)
        spec = CampaignSpec(key=key, program=prog, kinds=("zero", "randomize"), exhaustive_threshold=8192)
        table = site_action_table(prog, spec)
        runners = [faultengine._runner(prog, key, m, 42) for m in (2, 3, n - 2)]
        for r, w in faultengine._twin_rows(prog.compiled, table).items():
            assert (table[r].kind, table[r].values) == (table[w].kind, table[w].values)
            for runner in runners:
                got, want = runner.run_batch(*_row_faults(table[r])), runner.run_batch(*_row_faults(table[w]))
                assert got == want, (entry.algo, table[r].site, table[w].site)
            found += 1
    assert found == pairs


@pytest.mark.parametrize("algo, count", [("shamir", 23), ("aumuller", 35), ("vigilant", 61)])
def test_twin_rows_pair_whole_domain_rows_whatever_their_container(algo, count):
    spec = tiny_spec(algo=algo, messages=(2, 3), exhaustive_threshold=3072, **ALL_KINDS)
    prog = CATALOG[algo]
    table = site_action_table(prog, spec)
    twins = faultengine._twin_rows(prog.compiled, table)
    assert len(twins) == count
    whole = [w for w in twins.values() if isinstance(table[w].values, array)]
    assert whole
    # a write row's values held as a tuple still pair with the read row's array
    w = whole[0]
    as_tuple = list(table)
    as_tuple[w] = replace(table[w], values=tuple(table[w].values))
    assert faultengine._twin_rows(prog.compiled, as_tuple) == twins


def test_twin_rows_need_one_reader_naming_the_register_once_and_equal_values():
    b = ProgramBuilder("twins", ("M", "p", "q"))
    b.inp("m", "M")
    b.inp("p", "p")
    b.inp("q", "q")
    b.mul("n", "p", "q")
    twin = b.reduce("t", "m", "n")  # read once, by u alone: a twin
    u = b.mul("u", "t", "m", "n")
    two = b.reduce("x", "m", "n")  # read by two instructions
    b.add("y1", "x", "u", "n")
    b.add("y2", "x", "y1", "n")
    twice = b.reduce("a", "y2", "n")  # read twice by one instruction
    b.mul("sq", "a", "a", "n")
    drawn = b.draw("r1", 5)  # read once, and looked up by a second draw
    b.draw("r2", 5, avoid=("r1",))
    b.mul("z", "r1", "sq", "n")
    wide = b.add("d", "z", "z")  # unreduced: its read is bounded by p, its write is not
    b.reduce("e", "d", "p")
    b.ret("e")
    prog = b.build()
    spec = tiny_spec(algo=None, program=prog)
    table = site_action_table(prog, spec)
    twins = faultengine._twin_rows(prog.compiled, table)
    got = {(table[r].site, table[w].site, table[r].kind) for r, w in twins.items()}
    for w in (two, twice, drawn):
        assert not any(site == WriteOf(w) for _r, site, _k in got), w
    assert (ReadOf(u, 0), WriteOf(twin), FaultKind.ZERO) in got
    assert (ReadOf(u, 0), WriteOf(twin), FaultKind.RANDOMIZE) in got
    # d's zero rows are twins, its randomize rows range over unequal domains
    assert (ReadOf(wide + 1, 0), WriteOf(wide), FaultKind.ZERO) in got
    assert (ReadOf(wide + 1, 0), WriteOf(wide), FaultKind.RANDOMIZE) not in got


@settings(max_examples=200)
@given(st.integers(-200, 200), st.integers(0, 76))
def test_score_outcome_reads_the_gcd_as_bellcore_extract(v, sig):
    ref = bellcore_extract(77, sig, v, 7, 11)
    tally, factor, side = faultengine.score_outcome(77, 7, 11, sig, Signature(v))
    assert (tally == "success", factor) == (ref.success, ref.factor if ref.success else None)
    assert side == {7: "p", 11: "q", None: None}[factor]


class _Given:
    """A stand-in runner. run_batch gives lane k results[k % len(results)],
    but where a batch only writes values at one index, as an instruction
    group's runs do (_Tally._outputs), the lane writing u gets results[u %
    len(results)]: like a real runner's, a write lane's result depends on
    its value alone. An instruction stores 2 in the baseline (stored), and
    output gives what it computes from a read lane's value: a Crash, the
    baseline value 2, or another value."""

    stored = [2] * 64

    def __init__(self, results):
        self.results = results

    @staticmethod
    def output(j, slot, v):
        return Crash("bad-modulus") if v % 5 == 4 else (3 * v + slot + j) % 13

    def outputs(self, j, slot, values):
        return [self.output(j, slot, v) for v in values]

    def run_batch(self, lanes, writes, reads, skips):
        n = len(self.results)
        if not reads and not skips and len(writes) == 1:
            (lane_values,) = writes.values()
            return [self.results[u % n] for _k, u in lane_values]
        return [self.results[k % n] for k in range(lanes)]


_OUTCOMES = st.sampled_from(["baseline", "mod p", "mod q", "mod N", "unit", "error", "crash"])


@st.composite
def _columns(draw):
    """Per message: its signature and one result per lane position."""
    p, q, n = TINY.p, TINY.q, TINY.p * TINY.q
    cols = []
    for _m in range(draw(st.integers(1, 3))):
        sig = draw(st.integers(0, n - 1))
        results = []
        for kind in draw(st.lists(_OUTCOMES, min_size=1, max_size=5)):
            k = draw(st.integers(1, 40)) * draw(st.sampled_from([1, -1]))
            if kind == "baseline":
                results.append(Signature(sig))
            elif kind == "mod p":
                results.append(Signature(sig + p * (k if k % q else k + 1)))
            elif kind == "mod q":
                results.append(Signature(sig + q * (k if k % p else k + 1)))
            elif kind == "mod N":
                results.append(Signature(sig + n * k))
            elif kind == "unit":
                results.append(Signature(sig + draw(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 10]))))
            else:
                results.append(ErrorOut(4) if kind == "error" else Crash("bad-modulus"))
        cols.append((sig, results))
    return cols


@settings(max_examples=60)
@given(_columns(), st.sampled_from([1, 2]))
def test_column_scoring_matches_score_outcome_run_by_run(columns, order):
    """_Tally's counts and break columns equal score_outcome's, called on each
    result in plan order, then message order, at order 1 (instruction
    groups, twin rows included, then the skip rows as one-id plans) and
    order 2 (plan batches)."""
    kinds = ("zero", "randomize", "skip") if order == 1 else ("zero", "skip")
    spec = tiny_spec(order=order, kinds=kinds, plan_limit=40)
    prog = tiny_unprotected()
    table = site_action_table(prog, spec)
    plans, _sampled, ids = build_plans(prog, spec, table)
    runs = [(m, _Given(results), sig) for m, (sig, results) in zip((2, 3, 5), columns)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(faultengine, "_BATCH", 4)
        tally = faultengine._Tally(TINY, prog, ids, runs)
        tally.run(plans, 1)
    # plan, its rows, and its result per message's results: unprotected has
    # no check, so at order 1 every data row is in an instruction group,
    # where a lane stores u, its write value, or a read value's output:
    # a Crash ends it, the baseline value releases the signature, any other
    # runs as results[u % len]; elsewhere lane k of a batch gets results[k % len]
    twins = faultengine._twin_rows(prog.compiled, table)
    assert not [t for t in table if t.kind is not FaultKind.SKIP and dst_of(prog.instrs[t.site.index]) is None]

    def stored(t, v):
        i, v = t.site.index, v or 0
        return v if isinstance(t.site, WriteOf) else _Given.output(i, t.site.slot, v)

    def by_value(u):
        def result(sig, results):
            if isinstance(u, Crash):
                return u
            return Signature(sig) if u == _Given.stored[0] else results[u % len(results)]

        return result

    def by_lane(k):
        return lambda sig, results: results[k % len(results)]

    if order == 1:
        data = [r for r, t in enumerate(table) if t.kind is not FaultKind.SKIP]
        skips = [r for r, t in enumerate(table) if t.kind is FaultKind.SKIP]
        lanes = [
            (ids.base[r] + k, [r], by_value(stored(table[twins.get(r, r)], v)))
            for r in data for k, v in enumerate(table[r].values)
        ]
        lanes += [(ids.base[r], [r], by_lane(i % 4)) for i, r in enumerate(skips)]
    else:
        lanes = [
            (plan, [ids.by_id[a >> ids.shift] for a in ids.unpack(plan)], by_lane(i % 4))
            for i, plan in enumerate(plans)
        ]
    counts = [[0] * 6 for _ in table]  # attempts, successes, factor_p, factor_q, no_output, silent
    successes = []
    for plan, rows, given in lanes:
        for m, (sig, results) in zip((2, 3, 5), columns):
            res = given(sig, results)
            tally_name, factor, side = faultengine.score_outcome(77, 7, 11, sig, res)
            for r in rows:
                counts[r][0] += 1
                if tally_name == "success":
                    counts[r][1] += 1
                    counts[r][2 if side == "p" else 3] += 1
                counts[r][4] += tally_name == "no_output"
                counts[r][5] += tally_name == "silent"
            if tally_name == "success":
                acts = tuple(
                    (tally.rows[r].site, tally.rows[r].kind, table[r].values[a & ids.mask])
                    for r, a in zip(rows, ids.unpack(plan))
                )
                successes.append((m, acts, res.value, factor, side, plan))
    got = [[r.attempts, r.successes, r.factor_p, r.factor_q, r.no_output, r.silent] for r in tally.rows]
    assert got == counts
    breaks = tally.report_breaks()
    assert [
        (s.message, s.actions, s.signature, s.factor, s.side, plan)
        for s, plan in zip(breaks.successes(range(len(tally.plans))), tally.plans)
    ] == successes
    columns = (breaks.actions, breaks.messages, breaks.signatures, breaks.factors, breaks.persistent)
    assert {len(column) for column in columns} == {len(tally.plans)}


class _Ran:
    """A stand-in runner whose run gives one result against signature sig."""

    def __init__(self, sig, result):
        self.signature, self.result = sig, result

    def run(self, plan):
        return self.result


@settings(max_examples=60)
@given(_columns())
def test_replay_plan_scores_each_result_as_score_outcome_does(columns):
    for sig, results in columns:
        for res in results:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(faultengine, "_runner", lambda *_args: _Ran(sig, res))
                got = faultengine.replay_plan(None, TINY, 2, (), 42)
            tally_name, factor, _side = faultengine.score_outcome(77, 7, 11, sig, res)
            assert got == (res, tally_name == "success", factor)


@pytest.mark.parametrize("order", [1, 2])
def test_the_batch_size_does_not_change_the_report(monkeypatch, order):
    spec = tiny_spec(algo="shamir", messages=(2, 3), order=order, plan_limit=300, **ALL_KINDS)
    want = run_campaign(spec)
    assert want.successes
    monkeypatch.setattr(faultengine, "_BATCH", 7)  # rows and plan lists split mid-way
    got = run_campaign(spec)
    assert (got.to_json(), got.to_csv()) == (want.to_json(), want.to_csv())


def test_a_program_that_does_not_sign_is_refused():
    b = ProgramBuilder("echo", ("M",))
    b.inp("m", "M")
    b.ret("m")
    prog = b.build()
    with pytest.raises(ValueError, match="not its CRT signature"):
        run_campaign(tiny_spec(algo=None, program=prog, messages=(2, 3)))
    # the same spec on a program that signs runs
    run_campaign(tiny_spec(algo=None, program=tiny_unprotected(), messages=(2, 3)))


def test_sampled_campaigns_report_only_the_rows_they_touched():
    spec = tiny_spec(order=2, plan_limit=10)
    rep = run_campaign(spec)
    assert rep.sampled_plans
    assert len(rep.rows) < len(site_action_table(tiny_unprotected(), spec))
    assert all(r.attempts for r in rep.rows)


def test_reports_serialize_deterministically():
    rep_a = run_campaign(tiny_spec())
    rep_b = run_campaign(tiny_spec())
    assert rep_a.to_json() == rep_b.to_json()
    assert rep_a.to_csv() == rep_b.to_csv()
    header = rep_a.to_csv().splitlines()[0]
    assert header == (
        "site,kind,phase,attempts,successes,factor_p,factor_q,no_output,"
        "silent,fraction,exhaustive,domain,persistent,classification"
    )
    assert len(header.split(",")) == 14


def test_worker_pool_size_does_not_change_the_report():
    solo = run_campaign(tiny_spec(workers=1))
    pool = run_campaign(tiny_spec(workers=3))
    assert solo.to_json() == pool.to_json()


@pytest.fixture
def forks(monkeypatch):
    """Each job list run_campaign hands _fork_join, with its cost, and a
    count of os.fork calls, all kept in this process."""
    seen = {"jobs": [], "costs": [], "forks": 0}
    fork_join, fork = faultengine._fork_join, faultengine.os.fork

    def recording(jobs, compute, apply, workers, cost):
        seen["jobs"].append(jobs)
        seen["costs"].append(cost)
        return fork_join(jobs, compute, apply, workers, cost)

    def counting():
        seen["forks"] += 1
        return fork()

    monkeypatch.setattr(faultengine, "_fork_join", recording)
    monkeypatch.setattr(faultengine.os, "fork", counting)
    return seen


def _no_child_left():
    with pytest.raises(ChildProcessError):
        faultengine.os.waitpid(-1, faultengine.os.WNOHANG)


def test_forked_order_one_campaigns_give_the_serial_bytes(forks, monkeypatch):
    monkeypatch.setattr(faultengine, "_BATCH", 64)
    spec = tiny_spec(algo="shamir", messages=(2, 3), **ALL_KINDS)
    want = run_campaign(replace(spec, workers=1))
    assert want.successes and forks["forks"] == 0
    (jobs,), (cost,) = forks["jobs"], forks["costs"]
    twins = faultengine._twin_rows(CATALOG["shamir"].compiled, site_action_table(CATALOG["shamir"], spec))
    for workers in (2, 3):
        got = run_campaign(replace(spec, workers=workers))
        assert (got.to_json(), got.to_csv()) == (want.to_json(), want.to_csv())
        _no_child_left()
        # some twin read rows, and some later rows of an instruction group,
        # are booked in a later chunk than the group's job they take ran
        # in, and the skip rows, last in the table, run as id-plan batches
        # after chunk 0
        chunk_of = [c for c, chunk in enumerate(faultengine._chunks(jobs, workers, cost)) for _job in chunk]
        late = [i for i, job in enumerate(jobs) if job[-1] is not None and chunk_of[job[-1]] < chunk_of[i]]
        assert {jobs[i][1] in twins for i in late} == {True, False}
        assert min(c for c, job in zip(chunk_of, jobs) if job[1] is None) > 0
    assert forks["forks"] == 1 + 2


@pytest.mark.parametrize(
    "kw", [dict(algo="shamir", **ALL_KINDS), dict(algo="unprotected", order=2, kinds=("zero", "skip"))]
)
def test_jobs_hold_ints_and_booked_jobs_are_never_computed(forks, monkeypatch, kw):
    monkeypatch.setattr(faultengine, "_BATCH", 16)
    computed = []
    compute = faultengine._Tally._compute

    def counting(self, job):
        computed.append(job)
        return compute(self, job)

    monkeypatch.setattr(faultengine._Tally, "_compute", counting)
    # one process, so every _compute call reaches the counter; order 2's
    # space is enumerated whole
    spec = tiny_spec(messages=(2, 3), workers=1, **kw)
    assert not run_campaign(spec).sampled_plans
    (jobs,) = forks["jobs"]
    assert all(len(job) == 4 and all(x is None or type(x) is int for x in job) for job in jobs)
    booked = [job for job in jobs if job[-1] is not None]
    # instruction groups' later rows and twin read rows are booked at order 1 only
    assert bool(booked) == (spec.order == 1)
    assert all(jobs[job[-1]][-1] is None and job[-1] < i for i, job in enumerate(jobs) if job[-1] is not None)
    assert len(computed) == len(jobs) - len(booked)
    assert computed == [job for job in jobs if job[-1] is None]
    if spec.order == 1:
        # each row of a group is one whole-row job, its first row's taken by
        # every other row of the group, twin read rows of its write rows
        # included: one result has several takers
        prog = CATALOG[spec.algo]
        table = site_action_table(prog, spec)
        twins = faultengine._twin_rows(prog.compiled, table)
        groups = faultengine._output_groups(prog.compiled, table)
        assert twins and all(groups[r] == groups[w] for r, w in twins.items())
        job_of = {job[1]: i for i, job in reversed(list(enumerate(jobs))) if job[1] is not None}
        for r, g in groups.items():
            assert jobs[job_of[r]] == (len(table[r].values), r, 0, None if g == r else job_of[g])
        assert max(Counter(job[-1] for job in booked).values()) > 1


@pytest.mark.parametrize("algo", ["shamir", "aumuller", "vigilant"])
def test_twin_read_rows_book_the_bytes_they_would_run(forks, monkeypatch, algo):
    monkeypatch.setattr(faultengine, "_BATCH", 4)
    # domains over 3072 are sampled: vigilant's whole 16383-value rows
    # would take seconds a run in batches of 4
    spec = tiny_spec(algo=algo, messages=(2, 3), exhaustive_threshold=3072, **ALL_KINDS)
    prog = CATALOG[algo]
    table = site_action_table(prog, spec)
    twins = faultengine._twin_rows(prog.compiled, table)
    want = run_campaign(replace(spec, workers=1))
    # some twin row breaks past its first batch, under an id of a later one
    late = {(table[r].site.key(prog), table[r].kind.value): table[r].values[4:] for r in twins}
    assert any(v in late.get((site, kind), ()) for ((site, kind, v),) in (s.actions for s in want.successes))
    reports = {(want.to_json(), want.to_csv())}
    for shortcut, workers in ((True, 2), (False, 1), (False, 2)):
        if not shortcut:
            monkeypatch.setattr(faultengine, "_twin_rows", lambda code, table: {})
        rep = run_campaign(replace(spec, workers=workers))
        reports.add((rep.to_json(), rep.to_csv()))
        _no_child_left()
    assert len(reports) == 1
    assert forks["forks"] == 2


@pytest.mark.parametrize("algo", sorted(CATALOG))
def test_instruction_groups_book_the_bytes_every_lane_would_run(forks, monkeypatch, algo):
    """An order-1 campaign gives the same JSON and CSV booking instruction
    groups and twin read rows as running every lane, at workers 1 and 2.
    At this threshold many whole domains are wider than the ring their
    reader reduces by, so the groups book lanes beyond the twin rows'. lanes_run and lanes_booked say so, and add up to every lane."""
    monkeypatch.setattr(faultengine, "_BATCH", 64)  # enough jobs to fork at workers=2
    spec = tiny_spec(algo=algo, messages=(2, 75), exhaustive_threshold=3072, **ALL_KINDS)
    prog = CATALOG[algo]
    table = site_action_table(prog, spec)
    twin_lanes = 2 * sum(len(table[r].values) for r in faultengine._twin_rows(prog.compiled, table))
    reports = set()
    for workers in (1, 2):
        rep = run_campaign(replace(spec, workers=workers))
        assert rep.lanes_run + rep.lanes_booked == 2 * rep.plans_total
        assert rep.lanes_booked > twin_lanes
        reports.add((rep.to_json(), rep.to_csv()))
        _no_child_left()
    with monkeypatch.context() as every_lane:
        every_lane.setattr(faultengine, "_output_groups", lambda code, table: {})
        every_lane.setattr(faultengine, "_twin_rows", lambda code, table: {})
        for workers in (1, 2):
            rep = run_campaign(replace(spec, workers=workers))
            assert (rep.lanes_run, rep.lanes_booked) == (2 * rep.plans_total, 0)
            reports.add((rep.to_json(), rep.to_csv()))
            _no_child_left()
    assert len(reports) == 1
    assert forks["forks"] == 2


def test_forked_sampled_campaigns_give_the_serial_bytes(forks, monkeypatch):
    monkeypatch.setattr(faultengine, "_BATCH", 16)
    spec = tiny_spec(algo="shamir", messages=(2, 3), order=3, plan_limit=200, **ALL_KINDS)
    want = run_campaign(replace(spec, workers=1))
    assert want.sampled_plans and want.successes
    for workers in (2, 3):
        got = run_campaign(replace(spec, workers=workers))
        assert (got.to_json(), got.to_csv()) == (want.to_json(), want.to_csv())
        _no_child_left()
    assert forks["forks"] == 1 + 2


def test_a_batch_that_raises_in_a_child_raises_in_the_caller(forks, monkeypatch):
    monkeypatch.setattr(faultengine, "_BATCH", 64)
    run_batch = FaultRunner.run_batch

    def failing(self, lanes, writes, reads, skips):
        if skips:  # the skip rows run last, so in the last chunk
            raise RuntimeError(f"skip batch of {lanes} lanes from index {min(skips)}")
        return run_batch(self, lanes, writes, reads, skips)

    monkeypatch.setattr(FaultRunner, "run_batch", failing)  # forked children inherit it
    spec = tiny_spec(algo="shamir", messages=(2, 3), **ALL_KINDS)
    raised = []
    for workers in (1, 2):
        with pytest.raises(RuntimeError) as err:
            run_campaign(replace(spec, workers=workers))
        raised.append(str(err.value))
        _no_child_left()
    assert raised[0] == raised[1] and raised[0].startswith("skip batch")
    assert forks["forks"] == 1


def test_one_worker_never_forks_and_a_failed_fork_runs_its_chunk_here(forks, monkeypatch):
    monkeypatch.setattr(faultengine, "_BATCH", 16)
    spec = tiny_spec(messages=(2, 3), **ALL_KINDS)
    want = run_campaign(replace(spec, workers=1))
    assert forks["forks"] == 0

    tried = []

    def failing():
        tried.append(True)
        raise OSError("no process")

    monkeypatch.setattr(faultengine.os, "fork", failing)
    got = run_campaign(replace(spec, workers=2))
    assert tried and (got.to_json(), got.to_csv()) == (want.to_json(), want.to_csv())


# ------------------------------------------------------------------ wide keys

# a key of 64-bit primes with a 32-bit r, where a collision in a drawn ring
# or a value class has negligible chance, against WIDE, the 8-bit key
KEY64 = crt_from_rsa(gen_key(64, 2))


def _structural_rows(algo, key, r_bits):
    spec = CampaignSpec(
        key=key, algo=algo, kinds=("zero", "randomize", "skip"), max_skip_len=2,
        exhaustive_threshold=64, samples_per_site=8, seed=42, r_bits=r_bits, workers=1,
    )
    return {(r.site, r.kind) for r in run_campaign(spec).structural_rows()}


@pytest.mark.parametrize(
    "algo",
    ["straightforward", "fixed-shamir", "aumuller", "aumuller-infective", "vigilant", "vigilant-simplified-infective"],
)
def test_correct_schemes_show_no_structural_row_on_a_wide_key(algo):
    assert _structural_rows(algo, KEY64, 32) == set()


# giraud-sketch is left out: its ladder is unrolled per exponent bit, so its
# sites differ between the two widths
@pytest.mark.parametrize("algo", ["unprotected", "shamir", "joye", "ciet-joye", "blomer"])
def test_weak_schemes_break_on_a_wide_key_only_where_they_break_on_a_narrow_one(algo):
    wide = _structural_rows(algo, KEY64, 24 if algo == "blomer" else 32)
    assert wide and wide <= _structural_rows(algo, WIDE, 5)


# ---------------------------------------------------------------- report store

# sha256 of repr([(message, actions, signature, factor, side, persistent)])
# over a report's successes, as an AttackSuccess per break, built while the
# campaign ran, gave them before the breaks were kept as columns
EAGER_SUCCESSES = {
    "shamir@1": (
        dict(algo="shamir", messages=(2, 3, 75), **ALL_KINDS),
        3356,
        "428a932b94aa50c7b0b48fa6b5b1d99745cbe51efd6b523ffe51300ac92ac924",
    ),
    "shamir@2": (
        dict(algo="shamir", messages=(2, 3), order=2, plan_limit=300, **ALL_KINDS),
        106,
        "0625f5f5e32ee08a24da161839944a239b34ffa70f08a8e1bc92b796dd7699b4",
    ),
    "aumuller@2": (
        dict(algo="aumuller", order=2, kinds=("randomize",), r_bits=5, plan_limit=400),
        10,
        "602f69cdd4c5b6dd9265c93999f173c3dfcc9539d5b889221f02e7f6a5a11d07",
    ),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(EAGER_SUCCESSES))
def test_report_successes_are_the_list_an_eager_tally_built(forks, monkeypatch, name, workers):
    monkeypatch.setattr(faultengine, "_BATCH", 16)  # enough batches to fork at workers=2
    kw, count, digest = EAGER_SUCCESSES[name]
    spec = CampaignSpec(key=TINY, workers=workers, **kw)
    rep = run_campaign(spec)
    assert (forks["forks"] > 0) == (workers > 1)
    got = [(s.message, s.actions, s.signature, s.factor, s.side, s.persistent) for s in rep.successes]
    assert len(got) == count and rep.totals["successes_total"] == count
    assert hashlib.sha256(repr(got).encode()).hexdigest() == digest
    assert all(type(s) is faultengine.AttackSuccess for s in rep.successes)
    assert rep.successes is rep.successes  # built once
    assert rep.totals["persistent_successes"] == sum(1 for s in rep.successes if s.persistent)
    assert rep.persistent_successes() == [s for s in rep.successes if s.persistent]
    # to_json lists the first successes of each (first site, kind)
    seen, listed = defaultdict(int), []
    for s in rep.successes:
        seen[s.actions[0][:2]] += 1
        if seen[s.actions[0][:2]] <= faultengine._SUCCESSES_PER_ROW:
            listed.append({f: getattr(s, f) for f in faultengine._SUCCESS_FIELDS})
    doc = json.loads(rep.to_json())
    assert doc["successes"] == json.loads(json.dumps(listed)) and doc["successes_total"] == count
    if spec.order == 1:
        # twin read rows kept the successes of their write rows
        prog = build(spec.algo, TINY, r_bits=spec.r_bits, build_seed=spec.build_seed)
        table = site_action_table(prog, spec)
        rows = {(r.site, r.kind): r for r in rep.rows}
        twins = faultengine._twin_rows(prog.compiled, table)
        assert any(rows[table[r].site.key(prog), table[r].kind.value].successes for r in twins)


def test_no_tally_runner_or_table_outlives_run_campaign(monkeypatch):
    made = []

    def recording(make):
        def made_by(*args, **kw):
            out = make(*args, **kw)
            made.extend((type(x).__name__, weakref.ref(x)) for x in (out if isinstance(out, list) else [out]))
            return out

        return made_by

    tally_init, runner_init = faultengine._Tally.__init__, FaultRunner.__init__

    def recording_init(init):
        def made_by(self, *args):
            made.append((type(self).__name__, weakref.ref(self)))
            init(self, *args)

        return made_by

    monkeypatch.setattr(faultengine._Tally, "__init__", recording_init(tally_init))
    monkeypatch.setattr(FaultRunner, "__init__", recording_init(runner_init))
    monkeypatch.setattr(faultengine, "site_action_table", recording(faultengine.site_action_table))
    monkeypatch.setattr(faultengine, "build", recording(faultengine.build))
    for order, workers in ((1, 1), (1, 2), (2, 2)):
        made.clear()
        spec = tiny_spec(algo="shamir", order=order, plan_limit=300, workers=workers, **ALL_KINDS)
        rep = run_campaign(spec)
        assert {name for name, _ref in made} == {"_Tally", "FaultRunner", "SiteActions", "Program"}
        gc.collect()
        assert [name for name, ref in made if ref() is not None] == []
        assert rep.successes and rep.to_json()  # the report still reads its breaks


def test_spec_validation_rejects_nonsense():
    with pytest.raises(ValueError, match="order must be at least 1"):
        CampaignSpec(key=TINY, algo="unprotected", order=0)
    with pytest.raises(ValueError, match="workers must be at least 1"):
        CampaignSpec(key=TINY, algo="unprotected", workers=0)
    with pytest.raises(ValueError, match="unknown fault kind 'melt'"):
        CampaignSpec(key=TINY, algo="unprotected", kinds=("melt",))
    with pytest.raises(ValueError, match="give exactly one of algo or program"):
        CampaignSpec(key=TINY)  # neither algo nor program
    with pytest.raises(ValueError, match="message 2 is repeated"):
        CampaignSpec(key=TINY, algo="unprotected", messages=(2, 3, 2))
    with pytest.raises(ValueError, match="fault kind 'zero' is repeated"):
        CampaignSpec(key=TINY, algo="unprotected", kinds=("zero", "zero"))
    with pytest.raises(ValueError, match="max_skip_len < 1"):
        CampaignSpec(key=TINY, algo="unprotected", max_skip_len=0)
    assert CampaignSpec(key=TINY, algo="unprotected", kinds=("zero",), max_skip_len=0)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_spec_refuses_a_plan_limit_below_one_at_every_order(order):
    for limit in (0, -1):
        with pytest.raises(ValueError, match="plan_limit < 1 gives orders 2 and above no fault plans"):
            CampaignSpec(key=TINY, algo="unprotected", order=order, plan_limit=limit)
    assert CampaignSpec(key=TINY, algo="unprotected", order=order, plan_limit=1).plan_limit == 1
    if order > 1:
        # one plan is drawn, and run
        assert run_campaign(tiny_spec(order=order, plan_limit=1)).plans_total == 1


@pytest.mark.parametrize("message", [0, 7, 11, -2, 77, 80])  # zero, p, q, negative, N, above N
def test_spec_refuses_messages_that_are_not_units_mod_n(message):
    with pytest.raises(ValueError, match="not a unit"):
        tiny_spec(messages=(2, message))


def test_spec_refuses_default_messages_that_are_not_units_mod_n():
    key = derive_crt(3, 11, 7)  # the default messages are 2, 3 and N-2 = 31
    with pytest.raises(ValueError, match="message 3 is not a unit mod N=33"):
        CampaignSpec(key=key, algo="fixed-shamir")
    assert CampaignSpec(key=key, algo="fixed-shamir", messages=(2, 31)).messages == (2, 31)


def test_spec_accepts_messages_at_both_ends_of_the_unit_range():
    assert tiny_spec(messages=(1, 76)).messages == (1, 76)


@pytest.mark.parametrize(
    "change, complaint",
    [
        ({"iq": 3}, "inverse of q"),
        ({"p": 8}, "distinct primes"),
        ({"q": 7, "iq": 1}, "distinct primes"),
        ({"d": 44}, "dp=1 is not d=44"),
        ({"dq": 4}, "dq=4 is not d=43"),
    ],
)
def test_spec_refuses_inconsistent_keys(change, complaint):
    with pytest.raises(ValueError, match=complaint):
        CampaignSpec(key=replace(TINY, **change), algo="unprotected")


def test_spec_checks_the_exponent_halves_only_against_a_known_d():
    bare = replace(TINY, d=None, dp=5)
    assert CampaignSpec(key=bare, algo="unprotected").key == bare


@pytest.mark.parametrize(
    "options",
    [
        {"kinds": ("skip",), "max_skip_len": 0},
        {"order": 2, "plan_limit": 0},
        {"kinds": ("randomize",), "samples_per_site": 0, "exhaustive_threshold": 4},
    ],
)
def test_a_campaign_without_plans_is_refused(options):
    with pytest.raises(ValueError, match="no fault plans"):
        run_campaign(CampaignSpec(key=TINY, algo="unprotected", **options))
