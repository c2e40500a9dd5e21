"""The write-ahead journal's storage contract.

A record is kept as the compact JSON text a durable log would write:
the journal's size is the sum of those texts, every read decodes a
fresh object, and the durability hook still sees the decoded record.
"""

import pytest

from repro.errors import ProtocolError
from repro.fedquery import Coordinator, QueryJournal, build_fleet
from repro.fedquery.journal import REC_DONE, REC_PARTIAL, REC_START
from repro.fedquery.spec import TRANSFORM_EXACT, FedQuerySpec, compact_json
from repro.infrastructure import Network
from repro.sim import World
from repro.store.query import Between

RECORDS = [
    {"type": REC_START, "tag": "q1", "roster": ["a", "b"], "spec": {"k": 1}},
    {"type": REC_PARTIAL, "tag": "q1", "child": "a",
     "payload": {"masked": 12345}, "status": "ok"},
    {"type": REC_START, "tag": "q2", "roster": ("c",), "tuple": (1, 2)},
    {"type": REC_PARTIAL, "tag": "q1", "child": "b",
     "payload": {"masked": 678}, "status": "ok", "note": "é"},
    {"type": REC_DONE, "tag": "q1", "result": {"total": 13023}},
]


def _journal():
    journal = QueryJournal()
    for record in RECORDS:
        journal.append(record)
    return journal


def _reads(journal):
    return journal.records(), journal.of("q1"), journal.by_tag()


class TestJournalBytes:
    def test_size_is_the_sum_of_the_records_compact_text(self):
        journal = QueryJournal()
        assert journal.bytes == 0
        for count, record in enumerate(RECORDS, 1):
            journal.append(record)
            assert journal.bytes == sum(
                len(compact_json(r)) for r in RECORDS[:count])

    def test_an_unjournalable_record_is_rejected_and_not_counted(self):
        journal = _journal()
        size = journal.bytes
        with pytest.raises(ProtocolError, match="unjournalable"):
            journal.append({"type": "leak", "tag": "q1", "raw": object()})
        assert journal.bytes == size and len(journal) == len(RECORDS)
        assert journal.of("q1") == _journal().of("q1")

    def test_the_coordinator_exports_its_journal_size(self):
        world = World(seed=7)
        network = Network(world)
        fleet = build_fleet(world, network, 6, purposes={"load-forecast"},
                            ring_neighbors=2)
        coordinator = Coordinator(world, network, neighbors=2)
        spec = FedQuerySpec(
            recipient="utility", purpose="load-forecast",
            transform=TRANSFORM_EXACT, collection="energy",
            where=Between("hour", 18, 21), value_field="watts", scale=10)
        assert coordinator.run(spec, fleet.roster).outcome == "complete"
        journal = coordinator.journal
        assert journal.bytes == sum(
            len(compact_json(record)) for record in journal.records()) > 0
        gauge = world.obs.export()["metrics"]["journal.bytes"]
        assert gauge["labels"][coordinator.address] == journal.bytes


class TestJournalReadsAreFresh:
    def test_mutating_a_read_leaves_every_later_read_unchanged(self):
        journal = _journal()
        pristine = _reads(journal)
        records, of_q1, grouped = _reads(journal)
        for record in records + of_q1 + [
                r for group in grouped.values() for r in group]:
            record["type"] = "tampered"
            record.pop("tag")
            for value in record.values():
                if isinstance(value, dict):
                    value.clear()
                elif isinstance(value, list):
                    value.append("tampered")
        records.clear()
        of_q1.append({"type": "forged", "tag": "q1"})
        grouped["q1"].clear()
        grouped["forged"] = []
        assert _reads(journal) == pristine

    def test_reads_come_back_as_json_would_store_them(self):
        journal = _journal()
        [_, _, start, _, _] = journal.records()
        assert start["roster"] == ["c"] and start["tuple"] == [1, 2]
        assert [r["child"] for r in journal.of("q1")
                if r["type"] == REC_PARTIAL] == ["a", "b"]
        assert list(journal.by_tag()) == ["q1", "q2"]
        assert journal.of("unknown") == []

    def test_on_append_receives_the_decoded_record(self):
        seen = []
        journal = QueryJournal(
            on_append=lambda index, record: seen.append((index, record)))
        for record in RECORDS:
            journal.append(record)
        assert [index for index, _ in seen] == list(range(len(RECORDS)))
        assert [record for _, record in seen] == journal.records()
        # The hook's record is the hook's own: editing it is not a write.
        seen[0][1]["type"] = "tampered"
        assert journal.records()[0]["type"] == REC_START
