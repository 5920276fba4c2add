"""The small-pool sweep of ``CollusionNetwork._sample_member``.

When every random probe of a pick hits a member the request has
already used, the network sweeps from a random start for the first
member, cyclically, that the request has not excluded.  The sweep
bisects a list of the request's free positions that it builds at the
request's first sweep and prunes as the request uses members.  The
reference here is the linear walk it replaced, the whole pick as the
network made it before, run on a twin network with its own generator.
Both must pick the same member (or ``None``) and leave their
generators in the same state after every pick, while the request's
exclusion set grows, requests start over, and members are dropped
(swap-pop moves positions) or stored between picks.
"""

from __future__ import annotations

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.collusion.network import CollusionNetwork


def reference_sample_member(network, exclude):
    """The pick with the linear sweep: ten probes, then a walk over
    every position from a random start."""
    members = network._member_list
    if not members:
        return None
    hot = None if network._uniform_mode else network._hot_members
    getrandbits = network._getrandbits
    if hot and network._rng_random() < network._reuse_bias:
        size = len(hot)
        bits = size.bit_length()
        for _ in range(4):
            r = getrandbits(bits)
            while r >= size:
                r = getrandbits(bits)
            member = hot[r]
            if member not in exclude and member in network.token_db:
                return member
    size = len(members)
    bits = size.bit_length()
    for _ in range(10):
        r = getrandbits(bits)
        while r >= size:
            r = getrandbits(bits)
        member = members[r]
        if member not in exclude:
            return member
    start = getrandbits(bits)
    while start >= size:
        start = getrandbits(bits)
    for i in range(size):
        member = members[(start + i) % size]
        if member not in exclude:
            return member
    return None


def _network(size, hot_size, reuse_bias, seed):
    """A network holding only its pick state: ``size`` members, a hot
    set of the first ``hot_size`` (uniform picks when empty)."""
    network = CollusionNetwork.__new__(CollusionNetwork)
    pool = [f"member:{index}" for index in range(size)]
    network.install_state({
        "rng": random.Random(seed),
        "token_db": {}, "_member_list": [], "_member_index": {},
        "dead_members": {},
        "_hot_members": pool[:hot_size], "_uniform_mode": not hot_size,
        "_reuse_bias": reuse_bias,
    })
    for member in pool:
        network._store_member(member, f"token:{member}")
    return network


#: A pick's outcome in a delivery round: the request uses the member
#: (a delivered like), the like fails, the token proves dead and the
#: member is dropped, or the request uses the member and then someone
#: joins (a dead member rejoins, or a new one).
_VERDICTS = st.sampled_from(("used", "used", "used", "failed", "dead",
                             "join"))

_STEPS = st.lists(st.one_of(
    # A delivery round: one pick per verdict.
    st.tuples(st.just("round"), st.lists(_VERDICTS, min_size=1,
                                         max_size=80)),
    # The request excludes the member at a position, or an outsider.
    st.tuples(st.just("exclude"), st.integers(0, 80)),
    # A member's token proves dead outside a pick.
    st.tuples(st.just("drop"), st.integers(0, 63)),
    # A live member re-joins, a dead one rejoins, or a new one joins.
    st.tuples(st.just("store"), st.integers(0, 63)),
    # A new request, excluding this many in a thousand of the members.
    st.tuples(st.just("request"), st.integers(0, 1000)),
), max_size=40)


#: A request that starts with 85% of the pool excluded, so its picks
#: sweep, and drops and adds members between sweeps.
_SWEEPING_ROUND = [("request", 850), ("round", [
    "used", "used", "used", "dead", "used", "failed", "join", "used",
    "used", "dead", "used", "join", "used"])]


@settings(max_examples=400, deadline=None)
@example(size=12, hot_size=0, reuse_bias=0.0, seed=0, steps=_SWEEPING_ROUND)
@example(size=30, hot_size=0, reuse_bias=0.0, seed=17,
         steps=_SWEEPING_ROUND)
@example(size=40, hot_size=0, reuse_bias=0.0, seed=0, steps=_SWEEPING_ROUND)
@given(size=st.integers(1, 64), hot_size=st.integers(0, 8),
       reuse_bias=st.sampled_from([0.0, 0.5, 0.95]),
       seed=st.integers(0, 2 ** 32 - 1), steps=_STEPS)
def test_sweep_picks_what_the_linear_walk_picks(size, hot_size, reuse_bias,
                                                seed, steps):
    network = _network(size, hot_size, reuse_bias, seed)
    twin = _network(size, hot_size, reuse_bias, seed)
    subsets = random.Random(seed)

    def drop(member):
        network._drop_member(member)
        twin._drop_member(member)

    joined = size

    def store(member=None):
        nonlocal joined
        if member is None:
            member = f"member:{joined}"
            joined += 1
        network._store_member(member, f"token:{member}")
        twin._store_member(member, f"token:{member}")

    used = set()
    for op, value in steps:
        members = network._member_list
        if op == "round":
            for verdict in value:
                picked = network._sample_member(used)
                assert picked == reference_sample_member(twin, used)
                assert network.rng.getstate() == twin.rng.getstate()
                if picked is None:
                    break
                if verdict in ("used", "join"):
                    used.add(picked)
                if verdict == "dead":
                    drop(picked)
                elif verdict == "join":
                    dead = list(network.dead_members)
                    store(dead[len(used) % len(dead)] if dead else None)
        elif op == "exclude":
            used.add(members[value % len(members)]
                     if members and value < 64 else f"outsider:{value}")
        elif op == "drop" and members:
            drop(members[value % len(members)])
        elif op == "store":
            dead = list(network.dead_members)
            if value % 3 == 0 and members:
                store(members[value % len(members)])
            elif value % 3 == 1 and dead:
                store(dead[value % len(dead)])
            else:
                store()
        elif op == "request":
            used = set(subsets.sample(members,
                                      len(members) * value // 1000))
        assert network._member_list == twin._member_list
