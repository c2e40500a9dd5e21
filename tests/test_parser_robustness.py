"""Fuzz-style robustness tests for every wire-format parser.

The cloud is the adversary, so every ``from_bytes`` is attack surface:
parsers must raise the library's typed errors (never ``IndexError`` /
``struct.error`` / raw ``ValueError``) on arbitrary or mutated bytes.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import SealedBlob, Signature, hkdf, seal
from repro.errors import IntegrityError, PolicyError, ProtocolError, StorageError
from repro.fedquery import TRANSFORM_EXACT, FedQuerySpec, gate
from repro.policy import (
    RIGHT_READ,
    AccessContext,
    DataEnvelope,
    UsagePolicy,
    private_policy,
)
from repro.sharing.protocol import ShareOffer
from repro.store import (
    Between,
    decode_record,
    encode_record,
    predicate_from_wire,
    predicate_to_wire,
)

KEY = hkdf(bytes(16), "fuzz")

TYPED_ERRORS = (IntegrityError, PolicyError, ProtocolError, StorageError)


def valid_envelope_bytes():
    return DataEnvelope.create(
        KEY, "object", 3, b"payload-bytes", private_policy("alice")
    ).to_bytes()


def valid_offer_bytes():
    offer = ShareOffer(
        object_id="object",
        version=3,
        vault_key="vault/a/object",
        owner_cell="a",
        wrapped_key=seal(KEY, bytes(16), header=b"keywrap:object:3"),
        kind="photo",
        keywords="",
    )
    return offer.to_bytes()


class TestArbitraryBytes:
    @settings(max_examples=150, deadline=None)
    @given(st.binary(max_size=200))
    def test_sealed_blob_parser(self, data):
        try:
            SealedBlob.from_bytes(data)
        except TYPED_ERRORS:
            pass

    @settings(max_examples=150, deadline=None)
    @given(st.binary(max_size=200))
    def test_envelope_parser(self, data):
        try:
            DataEnvelope.from_bytes(data)
        except TYPED_ERRORS:
            pass

    @settings(max_examples=150, deadline=None)
    @given(st.binary(max_size=200))
    def test_record_decoder(self, data):
        try:
            decode_record(data)
        except TYPED_ERRORS:
            pass

    @settings(max_examples=150, deadline=None)
    @given(st.binary(max_size=200))
    def test_policy_parser(self, data):
        try:
            UsagePolicy.from_bytes(data)
        except TYPED_ERRORS:
            pass
        except (KeyError, TypeError, AttributeError):
            pytest.fail("policy parser leaked an untyped error")

    @settings(max_examples=150, deadline=None)
    @given(st.binary(max_size=200))
    def test_share_offer_parser(self, data):
        try:
            ShareOffer.from_bytes(data)
        except TYPED_ERRORS:
            pass

    @settings(max_examples=100, deadline=None)
    @given(st.binary(max_size=100))
    def test_signature_parser(self, data):
        try:
            Signature.from_bytes(data)
        except TYPED_ERRORS:
            pass


class TestMutatedValidBytes:
    """Bit flips / truncations / extensions of well-formed messages."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_mutated_envelope_never_decrypts_wrong(self, data):
        original = valid_envelope_bytes()
        position = data.draw(st.integers(0, len(original) - 1))
        flip = data.draw(st.integers(1, 255))
        mutated = (
            original[:position]
            + bytes([original[position] ^ flip])
            + original[position + 1 :]
        )
        try:
            envelope = DataEnvelope.from_bytes(mutated)
            payload, policy = envelope.open(KEY)
        except TYPED_ERRORS:
            return
        # a parse + open that *succeeds* must yield the original truth
        assert payload == b"payload-bytes"
        assert policy.owner == "alice"

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=120))
    def test_truncated_envelope_rejected(self, cut):
        original = valid_envelope_bytes()
        if cut >= len(original):
            return
        with pytest.raises(TYPED_ERRORS):
            envelope = DataEnvelope.from_bytes(original[: len(original) - 1 - cut])
            envelope.open(KEY)

    @settings(max_examples=60, deadline=None)
    @given(st.binary(min_size=1, max_size=30))
    def test_extended_envelope_rejected(self, suffix):
        original = valid_envelope_bytes()
        with pytest.raises(TYPED_ERRORS):
            DataEnvelope.from_bytes(original + suffix)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_mutated_offer_parses_or_raises_typed(self, data):
        original = valid_offer_bytes()
        position = data.draw(st.integers(0, len(original) - 1))
        mutated = (
            original[:position]
            + bytes([original[position] ^ data.draw(st.integers(1, 255))])
            + original[position + 1 :]
        )
        try:
            ShareOffer.from_bytes(mutated)
        except TYPED_ERRORS:
            pass

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_record_encoding_mutations(self, data):
        original = encode_record({"name": "alice", "age": 34, "blob": b"\x01\x02"})
        position = data.draw(st.integers(0, len(original) - 1))
        mutated = (
            original[:position]
            + bytes([original[position] ^ data.draw(st.integers(1, 255))])
            + original[position + 1 :]
        )
        try:
            decode_record(mutated)
        except TYPED_ERRORS:
            pass
        except UnicodeDecodeError:
            pytest.fail("record decoder leaked UnicodeDecodeError")


def policy_bytes(**overrides):
    data = private_policy("alice").to_dict()
    data.update(overrides)
    return json.dumps(data).encode()


class TestPolicyShapes:
    """Well-formed JSON that is not a well-formed policy."""

    def test_deep_nesting_is_a_policy_error(self):
        with pytest.raises(PolicyError):
            UsagePolicy.from_bytes(b"[" * 100_000)

    @pytest.mark.parametrize("max_uses", ["3", True, -1, 2.0, [3]])
    def test_max_uses_must_be_a_count(self, max_uses):
        with pytest.raises(PolicyError):
            UsagePolicy.from_bytes(policy_bytes(max_uses=max_uses))

    def test_wrong_typed_condition_bound_denies(self):
        wire = predicate_to_wire(Between("timestamp", "zz", None))
        policy = UsagePolicy.from_bytes(policy_bytes(conditions=[wire]))
        decision = policy.evaluate(
            RIGHT_READ, AccessContext(subject="alice", timestamp=0))
        assert not decision.allowed
        assert decision.reason.startswith("condition failed: ")


# -- the predicate codec: a query's ``where`` and a policy's conditions --

WIRE_KEYS = {
    "all": (), "eq": ("field", "value"), "ne": ("field", "value"),
    "between": ("field", "low", "high"), "contains": ("field", "needle"),
    "keyword": ("field", "terms"), "and": ("children",),
    "or": ("children",), "not": ("child",),
}
json_scalars = (st.none() | st.booleans() | st.integers()
                | st.floats(allow_nan=False) | st.text(max_size=4))
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=10,
)


@st.composite
def wire_shapes(draw, depth=3):
    """Mostly well-formed predicate dicts, each slot sometimes wrong."""
    op = draw(st.sampled_from(sorted(WIRE_KEYS) + ["quantum"]))
    shape = {"op": op}
    for key in WIRE_KEYS.get(op, ("field",)):
        if draw(st.integers(0, 11)) == 0:
            continue  # a missing key
        if key in ("children", "child") and depth:
            child = wire_shapes(depth - 1)
            shape[key] = draw(st.lists(child, max_size=3)
                              if key == "children" else child)
        elif key == "terms":
            shape[key] = draw(st.lists(st.text(max_size=4), max_size=3)
                              | json_values)
        else:
            shape[key] = draw(json_scalars | json_values)
    if draw(st.integers(0, 11)) == 0:
        shape[draw(st.text(max_size=4))] = draw(json_values)  # an extra key
    return shape


def valid_spec_wire():
    return dict(FedQuerySpec(
        recipient="utility", purpose="billing", transform=TRANSFORM_EXACT,
        collection="energy", where=Between("hour", 18, 21),
    ).to_wire())


class TestPredicateCodec:
    @staticmethod
    def parses_exactly(data):
        try:
            predicate = predicate_from_wire(data)
        except ProtocolError:
            return
        assert predicate_to_wire(predicate) == data

    @settings(max_examples=300, deadline=None)
    @given(json_values)
    def test_arbitrary_json(self, data):
        self.parses_exactly(data)

    @settings(max_examples=500, deadline=None)
    @given(wire_shapes())
    def test_near_valid_trees(self, data):
        self.parses_exactly(data)

    def test_deep_nesting_is_a_protocol_error(self):
        data = {"op": "all"}
        for _ in range(100_000):
            data = {"op": "not", "child": data}
        with pytest.raises(ProtocolError):
            predicate_from_wire(data)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_spec_parses_or_raises_protocol_error(self, data):
        wire = valid_spec_wire()
        key = data.draw(st.sampled_from(sorted(wire)))
        if data.draw(st.booleans()):
            del wire[key]
        else:
            wire[key] = data.draw(
                wire_shapes() if key == "where" else json_values)
        if data.draw(st.integers(0, 9)) == 0:
            wire = data.draw(json_values)
        try:
            spec = FedQuerySpec.from_wire(wire)
        except ProtocolError:
            return
        assert spec.to_wire()["where"] == wire["where"]


class TestSealedRecordBatch:
    """``gate.open_records`` parses hex the untrusted coordinator relays."""

    ROWS = [{"qi_age": 41, "diagnosis": "flu"}]

    def test_roundtrip(self):
        blob_hex = gate.seal_records(KEY, self.ROWS, "q1", "cell-0")
        assert gate.open_records(KEY, blob_hex) == self.ROWS

    @pytest.mark.parametrize("blob_hex", ["zz", "abc", "00 0g", "\u0661\u0662", 7, None])
    def test_malformed_hex_is_integrity_evidence(self, blob_hex):
        with pytest.raises(IntegrityError):
            gate.open_records(KEY, blob_hex)

    def test_truncated_and_mutated_blobs_are_integrity_evidence(self):
        blob_hex = gate.seal_records(KEY, self.ROWS, "q1", "cell-0")
        with pytest.raises(IntegrityError):
            gate.open_records(KEY, blob_hex[:-2])
        flipped = blob_hex[:-1] + ("0" if blob_hex[-1] != "0" else "1")
        with pytest.raises(IntegrityError):
            gate.open_records(KEY, flipped)

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=64))
    def test_arbitrary_text_raises_integrity_error(self, blob_hex):
        with pytest.raises(IntegrityError):
            gate.open_records(KEY, blob_hex)
