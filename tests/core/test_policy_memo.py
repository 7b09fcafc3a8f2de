"""The randomized policy measures each document pair once, and decides
exactly as the paper's algorithm does without a memo.

The reference below is the Section IV algorithm written plainly: every
estimate is recomputed from the two byte strings on every use.  The
memoized policy must agree with it after every ``observe`` — same stored
documents, base-file, owner and RNG state — while calling ``delta_size``
at most once per distinct ordered pair.
"""

from __future__ import annotations

import hashlib
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base_file import RandomizedPolicy
from repro.core.config import (
    AnonymizationConfig,
    BaseFileConfig,
    DeltaServerConfig,
    EvictionVariant,
)
from repro.core.delta_server import DeltaServer
from repro.core.rebase import RebaseController
from repro.delta.light import LightEstimator
from repro.http.messages import (
    HEADER_ACCEPT_DELTA,
    HEADER_DELTA,
    HEADER_DELTA_BASE,
    Request,
)
from repro.origin.server import OriginServer
from repro.origin.site import SiteSpec, SyntheticSite
from repro.url.rules import RuleBook


def toy_delta(base: bytes, target: bytes) -> int:
    """Deterministic, asymmetric stand-in for a delta size."""
    return 3 * abs(len(base) - len(target)) + sum(
        (a ^ b) % 7 for a, b in zip(base, target)
    ) + len(target) % 5


class CountingDelta:
    """``toy_delta`` that records which ordered pairs it was asked for."""

    def __init__(self) -> None:
        self.calls = 0
        self.pairs: set[tuple[bytes, bytes]] = set()

    def __call__(self, base: bytes, target: bytes) -> int:
        self.calls += 1
        self.pairs.add((base, target))
        return toy_delta(base, target)


class ReferencePolicy:
    """Section IV's randomized algorithm, recomputing every estimate."""

    def __init__(self, config: BaseFileConfig, rng: random.Random) -> None:
        self.config = config
        self.rng = rng
        self.stored: list[list] = []  # [doc, owner, {other_id: delta}, id]
        self.references: list[list] = []  # [doc, id]
        self.evictions = 0
        self.ids = 0

    def _next_id(self) -> int:
        self.ids += 1
        return self.ids

    def observe(self, doc: bytes, owner: str) -> None:
        if self.rng.random() >= self.config.sample_probability:
            return
        entry = [doc, owner, {}, self._next_id()]
        if self.config.eviction is EvictionVariant.TWO_SET:
            reference = [doc, self._next_id()]
            for ref_doc, ref_id in self.references:
                entry[2][ref_id] = toy_delta(doc, ref_doc)
            for other in self.stored:
                other[2][reference[1]] = toy_delta(other[0], doc)
            self.stored.append(entry)
            self.references.append(reference)
            if len(self.stored) > self.config.capacity:
                self.stored.remove(max(self.stored, key=self._utility))
            if len(self.references) > self.config.capacity:
                victim = self.rng.choice(self.references)
                self.references.remove(victim)
                for other in self.stored:
                    other[2].pop(victim[1], None)
            return
        for other in self.stored:
            entry[2][other[3]] = toy_delta(doc, other[0])
            other[2][entry[3]] = toy_delta(other[0], doc)
        self.stored.append(entry)
        if len(self.stored) <= self.config.capacity:
            return
        self.evictions += 1
        period = self.config.random_evict_period
        if (
            self.config.eviction is EvictionVariant.PERIODIC_RANDOM
            and self.evictions % period == 0
        ):
            best = min(self.stored, key=self._utility)
            victim = self.rng.choice([e for e in self.stored if e is not best])
        else:
            victim = max(self.stored, key=self._utility)
        self.stored.remove(victim)
        for other in self.stored:
            other[2].pop(victim[3], None)

    @staticmethod
    def _utility(entry: list) -> int:
        return sum(entry[2].values())

    def current(self) -> tuple[bytes, str] | None:
        if not self.stored:
            return None
        best = min(self.stored, key=self._utility)
        return best[0], best[1]

    def utility_of(self, doc: bytes) -> float | None:
        measured = (
            [r[0] for r in self.references]
            if self.config.eviction is EvictionVariant.TWO_SET
            else [e[0] for e in self.stored]
        )
        if doc in measured:
            measured.remove(doc)
        if not measured:
            return None
        return sum(toy_delta(doc, other) for other in measured) / len(measured)


@st.composite
def streams(draw):
    capacity = draw(st.integers(min_value=2, max_value=5))
    # At most 2K distinct documents: every ordered pair fits the memo
    # (4K² entries), so no pair may ever be computed twice.
    pool = draw(
        st.lists(
            st.binary(min_size=1, max_size=12),
            min_size=1,
            max_size=2 * capacity,
            unique=True,
        )
    )
    steps = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(pool) - 1),
                st.sampled_from(["u1", "u2", "u3"]),
                st.booleans(),
            ),
            min_size=1,
            max_size=60,
        )
    )
    config = BaseFileConfig(
        sample_probability=draw(st.sampled_from([1.0, 0.6])),
        capacity=capacity,
        eviction=draw(st.sampled_from(list(EvictionVariant))),
        random_evict_period=draw(st.integers(1, 3)),
    )
    return config, pool, steps, draw(st.integers(0, 2**16))


class TestDecisionIdentity:
    @settings(max_examples=150, deadline=None)
    @given(streams())
    def test_memoized_policy_matches_reference(self, case):
        config, pool, steps, seed = case
        counting = CountingDelta()
        rng = random.Random(seed)
        policy = RandomizedPolicy(config, counting, rng)
        reference = ReferencePolicy(config, random.Random(seed))
        for index, owner, probe in steps:
            # A fresh bytes object per response, as the origin produces.
            document = bytes(pool[index])
            policy.observe(document, owner)
            reference.observe(document, owner)
            assert policy.stored_documents == [e[0] for e in reference.stored]
            expected = reference.current()
            assert policy.current() == (expected[0] if expected else None)
            assert policy.current_owner() == (expected[1] if expected else None)
            assert rng.getstate() == reference.rng.getstate()
            if probe:
                assert policy.utility_of(document) == reference.utility_of(document)
        assert counting.calls <= len(counting.pairs)

    def test_past_timeout_rebase_check_computes_nothing_new(self):
        config = BaseFileConfig(
            sample_probability=1.0, capacity=4, rebase_timeout=10.0,
            improvement_factor=100.0,  # the challenger never wins: checks repeat
        )
        counting = CountingDelta()
        policy = RandomizedPolicy(config, counting, random.Random(5))
        for size in (40, 44, 47, 52, 60):
            policy.observe(b"a" * size)
        incumbent = b"b" * 45  # not a stored candidate
        controller = RebaseController(config)
        assert controller.check(policy, incumbent, b"x", 100.0, 0.0) is None
        before = counting.calls
        for now in (101.0, 150.0, 900.0):
            assert controller.check(policy, incumbent, b"x", now, 0.0) is None
        assert counting.calls == before

    def test_evicted_and_flushed_candidates_drop_their_index(self):
        estimator = LightEstimator()
        config = BaseFileConfig(sample_probability=1.0, capacity=2)
        policy = RandomizedPolicy(
            config, estimator.estimate, random.Random(1), estimator=estimator
        )
        docs = [bytes([65 + i]) * 64 + b"shared tail " * 8 for i in range(3)]
        policy.observe(docs[0])
        policy.observe(docs[1])
        first_two = list(policy._candidates)
        assert all(c.light is not None for c in first_two)
        policy.observe(docs[2])  # overflows K=2: one candidate is evicted
        (evicted,) = [c for c in first_two if c not in policy._candidates]
        assert evicted.light is None
        survivors = list(policy._candidates)
        assert all(c.light is not None for c in survivors)
        policy.flush()
        assert all(c.light is None for c in survivors)

    def test_candidate_indexes_are_not_pinned_in_the_shared_cache(self):
        estimator = LightEstimator(index_cache_size=4)
        config = BaseFileConfig(sample_probability=1.0, capacity=3)
        policy = RandomizedPolicy(
            config, estimator.estimate, random.Random(1), estimator=estimator
        )
        for i in range(3):
            policy.observe(bytes([70 + i]) * 200)
        assert all(c.light is not None for c in policy._candidates)
        assert len(estimator._cache) == 0


# -- engine-level decision identity -------------------------------------------

SITE = SiteSpec(
    name="www.shop.example",
    categories=("laptops", "desktops"),
    products_per_category=5,
)
#: SHA-256 over every response of ``run_engine`` and the final class
#: states, recorded before estimates were memoized.
GOLDEN_ENGINE_DIGEST = (
    "fa06d698f2f5539c005bbf6b28800d1b8e306631f57a2e23b3e6a2608b86b81b"
)


def run_engine() -> tuple[str, DeltaServer]:
    """40 users x 10 URLs, two seeded passes across one origin epoch
    rollover (t=60 s), rebase timeout short enough for group rebases."""
    site = SyntheticSite(SITE)
    origin = OriginServer([site])
    rulebook = RuleBook()
    rulebook.add_rule(SITE.name, site.hint_rule_pattern())
    config = DeltaServerConfig(
        anonymization=AnonymizationConfig(documents=3, min_count=1),
        base_file=BaseFileConfig(
            sample_probability=0.3, rebase_timeout=20.0, improvement_factor=1.0
        ),
    )
    engine = DeltaServer(origin.handle, config, rulebook)
    users = [f"user{u:04d}" for u in range(40)]
    pairs = [(user, site.url_for(page)) for user in users for page in site.all_pages()]
    rng = random.Random(11)
    held: dict[str, set[str]] = {user: set() for user in users}
    digest = hashlib.sha256()
    now = 0.0
    for _ in range(2):
        rng.shuffle(pairs)
        for user, url in pairs:
            request = Request(url=url, cookies={"uid": user}, client_id=user)
            if held[user]:
                request.headers.set(HEADER_ACCEPT_DELTA, ",".join(sorted(held[user])))
            response = engine.handle(request, now)
            now += 0.1
            advertised = response.headers.get(HEADER_DELTA_BASE)
            if advertised:
                held[user].add(advertised)
            digest.update(
                f"{response.status} {response.headers.get(HEADER_DELTA)} {advertised} ".encode()
                + response.body
            )
    for cls in sorted(engine.grouper.classes, key=lambda c: c.class_id):
        digest.update(
            f"{cls.class_id} {cls.version} {cls.policy.current_owner()} ".encode()
            + (cls.distributable_base or b"")
            + b"".join(cls.policy.stored_documents)
        )
    return digest.hexdigest(), engine


class TestEngineDecisionIdentity:
    def test_seeded_engine_matches_golden_digest(self):
        digest, engine = run_engine()
        stats = engine.stats
        # The run exercises what the memo touches: deltas, group rebases
        # (utility_of past the timeout) and an epoch rollover.
        assert stats.deltas_served > 0
        assert stats.group_rebases > 0
        assert digest == GOLDEN_ENGINE_DIGEST
