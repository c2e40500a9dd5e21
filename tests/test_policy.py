"""Tests for the policy engine: conditions, UCON, sticky, audit."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import hkdf
from repro.errors import IntegrityError, PolicyError
from repro.policy import (
    RIGHT_AGGREGATE,
    RIGHT_READ,
    RIGHT_SHARE,
    AccessContext,
    AttributeEquals,
    AuditLog,
    DataEnvelope,
    Grant,
    HourOfDay,
    LocationIn,
    Obligation,
    PurposeIn,
    TimeWindow,
    UsagePolicy,
    UsageState,
    private_policy,
)
from repro.policy.ucon import OBLIGATION_NOTIFY_OWNER
from repro.sim.clock import SECONDS_PER_HOUR

KEY = hkdf(bytes(range(16)), "test")


def ctx(subject="bob", timestamp=1000, **kwargs):
    return AccessContext(subject=subject, timestamp=timestamp, **kwargs)


class TestConditions:
    def test_time_window(self):
        window = TimeWindow(not_before=100, not_after=200)
        assert not window.matches(ctx(timestamp=99).record())
        assert window.matches(ctx(timestamp=100).record())
        assert window.matches(ctx(timestamp=200).record())
        assert not window.matches(ctx(timestamp=201).record())

    def test_time_window_open_ends(self):
        assert TimeWindow(not_before=100).matches(ctx(timestamp=10**9).record())
        assert TimeWindow(not_after=100).matches(ctx(timestamp=0).record())
        assert TimeWindow().matches(ctx().record())

    def test_hour_of_day(self):
        office = HourOfDay(9, 17)
        assert office.matches(ctx(timestamp=10 * SECONDS_PER_HOUR).record())
        assert not office.matches(ctx(timestamp=18 * SECONDS_PER_HOUR).record())
        assert not office.matches(ctx(timestamp=17 * SECONDS_PER_HOUR).record())

    def test_hour_of_day_wraparound(self):
        night = HourOfDay(22, 6)
        assert night.matches(ctx(timestamp=23 * SECONDS_PER_HOUR).record())
        assert night.matches(ctx(timestamp=3 * SECONDS_PER_HOUR).record())
        assert not night.matches(ctx(timestamp=12 * SECONDS_PER_HOUR).record())

    def test_location(self):
        home = LocationIn(("home", "office"))
        assert home.matches(ctx(location="home").record())
        assert not home.matches(ctx(location="cafe").record())
        assert not home.matches(ctx().record())  # unknown location fails closed

    def test_purpose(self):
        billing = PurposeIn(("billing",))
        assert billing.matches(ctx(purpose="billing").record())
        assert not billing.matches(ctx(purpose="marketing").record())
        assert not billing.matches(ctx().record())

    def test_attribute_equals(self):
        family = AttributeEquals("group", "family")
        assert family.matches(ctx(attributes={"group": "family"}).record())
        assert not family.matches(ctx(attributes={"group": "friends"}).record())
        assert not family.matches(ctx().record())

    def test_serialization_roundtrip(self):
        conditions = [
            TimeWindow(10, 20),
            HourOfDay(9, 17),
            LocationIn(("home",)),
            PurposeIn(("billing", "stats")),
            AttributeEquals("role", "insurer"),
        ]
        policy = UsagePolicy(owner="alice", conditions=tuple(conditions))
        assert UsagePolicy.from_bytes(policy.to_bytes()) == policy

    def test_unknown_kind_rejected(self):
        data = UsagePolicy(owner="alice").to_dict()
        data["conditions"] = [{"kind": "quantum"}]
        with pytest.raises(PolicyError):
            UsagePolicy.from_bytes(json.dumps(data).encode())


class TestUsagePolicy:
    def policy(self, **overrides):
        settings = dict(
            owner="alice",
            grants=(
                Grant(rights=(RIGHT_READ,), subjects=("bob",)),
                Grant(
                    rights=(RIGHT_READ, RIGHT_AGGREGATE),
                    attributes=(("group", "family"),),
                ),
            ),
            conditions=(TimeWindow(not_after=10_000),),
            obligations=(Obligation(OBLIGATION_NOTIFY_OWNER),),
            max_uses=3,
        )
        settings.update(overrides)
        return UsagePolicy(**settings)

    def test_owner_has_all_rights(self):
        policy = self.policy()
        for right in (RIGHT_READ, RIGHT_AGGREGATE, RIGHT_SHARE):
            assert policy.evaluate(right, ctx(subject="alice")).allowed

    def test_explicit_subject_grant(self):
        assert self.policy().evaluate(RIGHT_READ, ctx(subject="bob")).allowed

    def test_ungrantee_denied(self):
        decision = self.policy().evaluate(RIGHT_READ, ctx(subject="eve"))
        assert not decision.allowed
        assert "no grant" in decision.reason

    def test_attribute_grant(self):
        context = ctx(subject="carol", attributes={"group": "family"})
        assert self.policy().evaluate(RIGHT_AGGREGATE, context).allowed

    def test_right_not_in_grant_denied(self):
        assert not self.policy().evaluate(RIGHT_SHARE, ctx(subject="bob")).allowed

    def test_condition_blocks_everyone_including_owner(self):
        late = ctx(subject="alice", timestamp=20_000)
        decision = self.policy().evaluate(RIGHT_READ, late)
        assert not decision.allowed
        assert "condition failed" in decision.reason

    def test_mutability_budget(self):
        policy = self.policy()
        assert policy.evaluate(RIGHT_READ, ctx(subject="bob"), prior_uses=2).allowed
        decision = policy.evaluate(RIGHT_READ, ctx(subject="bob"), prior_uses=3)
        assert not decision.allowed
        assert "budget exhausted" in decision.reason

    def test_obligations_returned_on_grant(self):
        decision = self.policy().evaluate(RIGHT_READ, ctx(subject="bob"))
        assert decision.obligations == (Obligation(OBLIGATION_NOTIFY_OWNER),)

    def test_unknown_right_rejected(self):
        with pytest.raises(PolicyError):
            self.policy().evaluate("fly", ctx())

    def test_unknown_right_in_grant_rejected(self):
        with pytest.raises(PolicyError):
            Grant(rights=("levitate",))

    def test_unknown_obligation_rejected(self):
        with pytest.raises(PolicyError):
            Obligation("sacrifice-goat")

    def test_private_policy_denies_everyone_else(self):
        policy = private_policy("alice")
        assert policy.evaluate(RIGHT_READ, ctx(subject="alice")).allowed
        assert not policy.evaluate(RIGHT_READ, ctx(subject="bob")).allowed

    def test_serialization_roundtrip(self):
        policy = self.policy()
        assert UsagePolicy.from_bytes(policy.to_bytes()) == policy

    def test_canonical_bytes_deterministic(self):
        assert self.policy().to_bytes() == self.policy().to_bytes()

    def test_malformed_bytes_rejected(self):
        with pytest.raises(PolicyError):
            UsagePolicy.from_bytes(b"not json at all \xff")

    def test_footnote6_photo_policy(self):
        """Paper footnote 6: ten accesses, during 2012, owner informed."""
        year_2012 = (TimeWindow(not_before=0, not_after=366 * 86400),)
        policy = UsagePolicy(
            owner="alice",
            grants=(Grant(rights=(RIGHT_READ,), subjects=("bob",)),),
            conditions=year_2012,
            obligations=(Obligation(OBLIGATION_NOTIFY_OWNER),),
            max_uses=10,
        )
        state = UsageState()
        granted = 0
        for _ in range(15):
            decision = policy.evaluate(
                RIGHT_READ,
                ctx(subject="bob", timestamp=100 * 86400),
                prior_uses=state.uses("photo", "bob"),
            )
            if decision.allowed:
                state.record_use("photo", "bob")
                granted += 1
        assert granted == 10


class TestUsageState:
    def test_counts(self):
        state = UsageState()
        assert state.uses("o", "bob") == 0
        assert state.record_use("o", "bob") == 1
        assert state.record_use("o", "bob") == 2
        assert state.uses("o", "carol") == 0

    def test_export_roundtrip(self):
        state = UsageState()
        state.record_use("photo", "bob")
        state.record_use("photo", "bob")
        state.record_use("mail", "carol")
        restored = UsageState.from_export(state.export())
        assert restored.uses("photo", "bob") == 2
        assert restored.uses("mail", "carol") == 1
        assert len(restored) == 2


class TestDataEnvelope:
    def test_roundtrip(self):
        policy = private_policy("alice")
        envelope = DataEnvelope.create(KEY, "photo-1", 2, b"jpeg-bytes", policy)
        payload, restored_policy = envelope.open(KEY)
        assert payload == b"jpeg-bytes"
        assert restored_policy == policy

    def test_policy_is_encrypted(self):
        policy = private_policy("alice")
        envelope = DataEnvelope.create(KEY, "photo-1", 1, b"data", policy)
        wire = envelope.to_bytes()
        assert b"alice" not in wire  # owner name must not leak to the cloud

    def test_wrong_key_rejected(self):
        envelope = DataEnvelope.create(KEY, "o", 1, b"data", private_policy("a"))
        with pytest.raises(IntegrityError):
            envelope.open(hkdf(bytes(16), "other"))

    def test_version_swap_detected(self):
        envelope = DataEnvelope.create(KEY, "o", 1, b"data", private_policy("a"))
        forged = DataEnvelope(object_id="o", version=2, blob=envelope.blob)
        with pytest.raises(IntegrityError):
            forged.open(KEY)

    def test_id_swap_detected(self):
        envelope = DataEnvelope.create(KEY, "o", 1, b"data", private_policy("a"))
        forged = DataEnvelope(object_id="other", version=1, blob=envelope.blob)
        with pytest.raises(IntegrityError):
            forged.open(KEY)

    def test_wire_roundtrip(self):
        envelope = DataEnvelope.create(KEY, "obj", 7, b"payload", private_policy("a"))
        assert DataEnvelope.from_bytes(envelope.to_bytes()) == envelope

    def test_truncated_wire_rejected(self):
        envelope = DataEnvelope.create(KEY, "obj", 7, b"payload", private_policy("a"))
        with pytest.raises(IntegrityError):
            DataEnvelope.from_bytes(envelope.to_bytes()[:5])

    def test_pipe_in_object_id_rejected(self):
        with pytest.raises(PolicyError):
            DataEnvelope.create(KEY, "a|b", 1, b"", private_policy("a"))

    def test_size_matches_wire(self):
        envelope = DataEnvelope.create(KEY, "obj", 7, b"payload", private_policy("a"))
        assert envelope.size == len(envelope.to_bytes())

    @settings(max_examples=20, deadline=None)
    @given(st.binary(max_size=200), st.integers(min_value=0, max_value=2**32))
    def test_roundtrip_property(self, payload, version):
        policy = private_policy("owner")
        envelope = DataEnvelope.create(KEY, "object", version, payload, policy)
        recovered, _ = DataEnvelope.from_bytes(envelope.to_bytes()).open(KEY)
        assert recovered == payload


class TestAuditLog:
    def make(self):
        return AuditLog(mac_key=hkdf(KEY, "audit"))

    def test_append_and_chain(self):
        log = self.make()
        log.append(100, "bob", "photo", "read", True)
        log.append(200, "eve", "photo", "read", False, reason="no grant")
        assert len(log) == 2
        assert AuditLog.verify_chain(log.entries())

    def test_tampered_entry_breaks_chain(self):
        log = self.make()
        log.append(100, "bob", "photo", "read", True)
        log.append(200, "bob", "photo", "read", True)
        entries = log.entries()
        import dataclasses

        entries[0] = dataclasses.replace(entries[0], subject="mallory")
        assert not AuditLog.verify_chain(entries)

    def test_removed_entry_breaks_chain(self):
        log = self.make()
        for i in range(3):
            log.append(i, "bob", "photo", "read", True)
        entries = log.entries()
        del entries[1]
        assert not AuditLog.verify_chain(entries)

    def test_reordered_entries_break_chain(self):
        log = self.make()
        log.append(1, "a", "o", "read", True)
        log.append(2, "b", "o", "read", True)
        entries = list(reversed(log.entries()))
        assert not AuditLog.verify_chain(entries)

    def test_empty_chain_valid(self):
        assert AuditLog.verify_chain([])

    def test_head_mac(self):
        log = self.make()
        log.append(1, "bob", "photo", "read", True)
        mac = log.head_mac()
        assert log.verify_head_mac(mac)
        log.append(2, "bob", "photo", "read", True)
        assert not log.verify_head_mac(mac)  # stale head

    def test_entries_for_object(self):
        log = self.make()
        log.append(1, "bob", "photo", "read", True)
        log.append(2, "bob", "mail", "read", True)
        log.append(3, "eve", "photo", "read", False)
        assert len(log.entries_for("photo")) == 2

    def test_seal_and_open_filtered(self):
        log = self.make()
        log.append(1, "bob", "photo", "read", True)
        log.append(2, "bob", "secret-diary", "read", True)
        blob = log.seal_for(KEY, object_id="photo")
        entries = AuditLog.open_sealed_log(KEY, blob)
        assert len(entries) == 1
        assert entries[0].object_id == "photo"
        # the sealed segment must not leak other objects' trails
        assert b"secret-diary" not in blob.to_bytes()

    def test_sealed_log_tamper_detected(self):
        log = self.make()
        log.append(1, "bob", "photo", "read", True)
        blob = log.seal_for(KEY)
        from repro.crypto import SealedBlob

        tampered = SealedBlob(
            blob.header,
            blob.nonce,
            blob.ciphertext[:-1] + bytes([blob.ciphertext[-1] ^ 1]),
            blob.tag,
        )
        with pytest.raises(IntegrityError):
            AuditLog.open_sealed_log(KEY, tampered)
