"""Property-based tests of the policy engine's invariants.

These check the *shape* of the UCON semantics over randomized policies
and contexts, independent of any particular scenario:

* serialization round-trips exactly (policies are wire objects);
* no grant ever yields a right its rights tuple does not contain;
* conditions are conjunctive: adding one can only shrink access;
* mutability is monotone: more prior uses never unlocks access;
* the owner bypasses grants but never conditions or budgets;
* each condition constructor's predicate decides exactly as the
  condition interpreter it replaced did.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.policy import (
    AccessContext,
    AttributeEquals,
    Grant,
    HourOfDay,
    LocationIn,
    PurposeIn,
    TimeWindow,
    UsagePolicy,
)
from repro.policy.ucon import ALL_RIGHTS
from repro.sim.clock import SECONDS_PER_HOUR

subjects = st.sampled_from(["alice", "bob", "carol", "dave", "eve"])
rights = st.lists(
    st.sampled_from(ALL_RIGHTS), min_size=1, max_size=3, unique=True
).map(tuple)

grants = st.builds(
    Grant,
    rights=rights,
    subjects=st.lists(subjects, max_size=3, unique=True).map(tuple),
    attributes=st.lists(
        st.tuples(st.sampled_from(["group", "role"]),
                  st.sampled_from(["family", "friend", "insurer"])),
        max_size=2, unique=True,
    ).map(tuple),
)

# (constructor, its keyword arguments): the equivalence test below
# needs the arguments; every other test takes the built predicate.
condition_args = st.one_of(
    st.tuples(st.just(TimeWindow), st.fixed_dictionaries({
        "not_before": st.one_of(st.none(), st.integers(0, 10_000)),
        "not_after": st.one_of(st.none(), st.integers(10_000, 100_000)),
    })),
    st.tuples(st.just(HourOfDay), st.fixed_dictionaries({
        "start_hour": st.integers(0, 23), "end_hour": st.integers(0, 24),
    })),
    st.tuples(st.just(LocationIn), st.fixed_dictionaries({
        "locations": st.lists(st.sampled_from(
            ["home", "office", "cafe", None]), max_size=2).map(tuple),
    })),
    st.tuples(st.just(PurposeIn), st.fixed_dictionaries({
        "purposes": st.lists(st.sampled_from(
            ["billing", "stats", None]), max_size=2).map(tuple),
    })),
    st.tuples(st.just(AttributeEquals), st.fixed_dictionaries({
        "name": st.sampled_from(["group", "role"]),
        "value": st.sampled_from(["family", "friend", None]),
    })),
)
conditions = condition_args.map(lambda pair: pair[0](**pair[1]))

policies = st.builds(
    UsagePolicy,
    owner=subjects,
    grants=st.lists(grants, max_size=3).map(tuple),
    conditions=st.lists(conditions, max_size=3).map(tuple),
    max_uses=st.one_of(st.none(), st.integers(0, 5)),
)

contexts = st.builds(
    AccessContext,
    subject=subjects,
    timestamp=st.integers(0, 200_000),
    attributes=st.dictionaries(
        st.sampled_from(["group", "role"]),
        st.sampled_from(["family", "friend", "insurer"]),
        max_size=2,
    ),
    location=st.one_of(st.none(), st.sampled_from(["home", "office", "cafe"])),
    purpose=st.one_of(st.none(), st.sampled_from(["billing", "stats"])),
)


@settings(max_examples=200, deadline=None)
@given(policies)
def test_serialization_roundtrip(policy):
    assert UsagePolicy.from_bytes(policy.to_bytes()) == policy


@settings(max_examples=200, deadline=None)
@given(policies, contexts, st.sampled_from(ALL_RIGHTS))
def test_granted_right_is_always_in_some_matching_grant(policy, context, right):
    decision = policy.evaluate(right, context)
    if decision.allowed and context.subject != policy.owner:
        assert any(
            right in grant.rights and grant.matches(context)
            for grant in policy.grants
        )


@settings(max_examples=200, deadline=None)
@given(policies, contexts, conditions, st.sampled_from(ALL_RIGHTS))
def test_adding_a_condition_never_widens_access(policy, context, extra, right):
    import dataclasses

    stricter = dataclasses.replace(
        policy, conditions=policy.conditions + (extra,)
    )
    if stricter.evaluate(right, context).allowed:
        assert policy.evaluate(right, context).allowed


@settings(max_examples=200, deadline=None)
@given(policies, contexts, st.integers(0, 10), st.sampled_from(ALL_RIGHTS))
def test_mutability_is_monotone(policy, context, uses, right):
    if policy.evaluate(right, context, prior_uses=uses + 1).allowed:
        assert policy.evaluate(right, context, prior_uses=uses).allowed


@settings(max_examples=200, deadline=None)
@given(policies, contexts, st.sampled_from(ALL_RIGHTS))
def test_owner_denials_come_only_from_conditions_or_budget(policy, context, right):
    import dataclasses

    owner_context = dataclasses.replace(context, subject=policy.owner)
    decision = policy.evaluate(right, owner_context)
    if not decision.allowed:
        assert ("condition failed" in decision.reason
                or "budget exhausted" in decision.reason)


@settings(max_examples=200, deadline=None)
@given(policies, contexts, st.sampled_from(ALL_RIGHTS))
def test_zero_budget_denies_everyone(policy, context, right):
    import dataclasses

    broke = dataclasses.replace(policy, max_uses=0)
    assert not broke.evaluate(right, context).allowed


@settings(max_examples=100, deadline=None)
@given(policies, contexts, st.sampled_from(ALL_RIGHTS))
def test_evaluation_is_deterministic(policy, context, right):
    first = policy.evaluate(right, context, prior_uses=1)
    second = policy.evaluate(right, context, prior_uses=1)
    assert first == second


# -- the reference: the condition interpreter's five ``evaluate`` bodies --


def reference_time_window(context, not_before=None, not_after=None):
    if not_before is not None and context.timestamp < not_before:
        return False
    if not_after is not None and context.timestamp > not_after:
        return False
    return True


def reference_hour_of_day(context, start_hour=0, end_hour=24):
    hour = (context.timestamp % (24 * SECONDS_PER_HOUR)) // SECONDS_PER_HOUR
    if start_hour <= end_hour:
        return start_hour <= hour < end_hour
    return hour >= start_hour or hour < end_hour


def reference_location_in(context, locations=()):
    return context.location is not None and context.location in locations


def reference_purpose_in(context, purposes=()):
    return context.purpose is not None and context.purpose in purposes


def reference_attribute_equals(context, name="", value=None):
    return context.attributes.get(name) == value


REFERENCE = {
    TimeWindow: reference_time_window,
    HourOfDay: reference_hour_of_day,
    LocationIn: reference_location_in,
    PurposeIn: reference_purpose_in,
    AttributeEquals: reference_attribute_equals,
}


@settings(max_examples=1000, deadline=None)
@given(condition_args, contexts)
def test_compiled_conditions_agree_with_the_reference(args, context):
    build, kwargs = args
    assert (build(**kwargs).matches(context.record())
            == REFERENCE[build](context, **kwargs))
