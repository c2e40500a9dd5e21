"""E8 — metadata queries on embedded hardware.

Operationalizes: "a significant amount of data and metadata is likely
to be embedded in some trusted cells and may need to be queried
efficiently. While it does not seem a major issue in powerful trusted
cells (e.g., a smart phone), it appears much more challenging when
facing low-end hardware devices like secure tokens."

For each hardware profile the same metadata workload is loaded into the
embedded catalog (flash cost model + profile CPU rate) and three query
shapes are timed: an indexed point lookup, an indexed range, and a
full-scan predicate. A second table sweeps selectivity to locate the
index-vs-scan crossover on the token profile.
"""

from __future__ import annotations

from ..hardware.flash import NandFlash
from ..hardware.profiles import HOME_GATEWAY, SMART_TOKEN, SMARTPHONE, HardwareProfile
from ..store.catalog import Catalog
from ..store.query import Between, Eq, Query
from .claims import Claim
from .tables import Table

PROFILES = (SMART_TOKEN, SMARTPHONE, HOME_GATEWAY)


def _loaded_catalog(profile: HardwareProfile, records: int) -> Catalog:
    flash = NandFlash(profile.flash, capacity_bytes=min(
        profile.flash_bytes, 16 * 1024 * 1024
    ))
    catalog = Catalog(flash, profile)
    documents = catalog.collection("documents")
    documents.create_hash_index("kind")
    documents.create_ordered_index("created_at")
    kinds = ["photo", "mail", "bill", "medical", "gps-trace"]
    for index in range(records):
        documents.insert(
            f"doc-{index:06d}",
            {
                "kind": kinds[index % len(kinds)],
                "created_at": index * 60,
                "size": (index * 37) % 5000,
                "keywords": f"keyword-{index % 50}",
            },
        )
    catalog.store.flush()
    return catalog


def _timed(catalog: Catalog, profile: HardwareProfile, query: Query):
    flash = catalog.store.flash
    flash.reset_counters()
    result = catalog.query(query)
    io_us = flash.elapsed_us
    cpu_us = profile.cpu_seconds(result.records_examined * 50) * 1e6
    energy_uj = flash.energy_uj + profile.cpu_energy_uj(
        result.records_examined * 50
    )
    return result, io_us + cpu_us, energy_uj


def run(seed: int = 0, records: int = 1000) -> list[Table]:
    # 1000 records keep the directory within the smart token's 64 KiB
    # RAM budget — itself a finding: the token caps the metadata set
    # it can index (the paper's "tiny RAM" challenge made concrete).
    workloads = [
        ("point (kind = bill)", Query("documents", where=Eq("kind", "bill"))),
        ("range (1h of timestamps)",
         Query("documents", where=Between("created_at", 0, 3600))),
        ("scan (size = 37)", Query("documents", where=Eq("size", 37))),
    ]
    table = Table(
        title=f"E8: metadata query latency, {records} records",
        columns=["profile", "query", "plan", "flash reads", "latency ms",
                 "energy uJ"],
    )
    for profile in PROFILES:
        catalog = _loaded_catalog(profile, records)
        for label, query in workloads:
            result, latency_us, energy_uj = _timed(catalog, profile, query)
            table.add_row(
                profile.name, label, result.plan, result.flash_reads,
                latency_us / 1000.0, energy_uj,
            )
    table.add_note("latency = flash time (profile NAND timings) + CPU at "
                   "50 abstract ops/record")

    crossover = Table(
        title="E8a: index vs scan crossover on the smart token",
        columns=["selectivity %", "index latency ms", "scan latency ms",
                 "index wins"],
    )
    catalog = _loaded_catalog(SMART_TOKEN, records)
    documents = catalog.collection("documents")
    documents.create_hash_index("keywords")
    for matching_keywords in (1, 5, 10, 25, 50):
        selectivity = matching_keywords / 50
        low, high = 0, int(records * selectivity) * 60 - 1
        _, range_latency, __ = _timed(
            catalog, SMART_TOKEN,
            Query("documents", where=Between("created_at", low, high)),
        )
        flash = catalog.store.flash
        flash.reset_counters()
        scan_result = catalog.query(
            Query("documents", where=Between("size", -1, 10**9))
        )
        scan_latency = (
            flash.elapsed_us
            + SMART_TOKEN.cpu_seconds(scan_result.records_examined * 50) * 1e6
        )
        crossover.add_row(
            selectivity * 100,
            range_latency / 1000.0,
            scan_latency / 1000.0,
            range_latency < scan_latency,
        )

    # -- ablation: compaction strategy under sustained churn --------------------
    from ..store.log_store import LogStructuredStore

    gc_table = Table(
        title="E8b: compaction strategy ablation (token flash, churn workload)",
        columns=["strategy", "GC time ms", "GC energy mJ", "block erases",
                 "wear skew"],
    )
    for strategy in ("full", "incremental"):
        flash = NandFlash(SMART_TOKEN.flash, capacity_bytes=2 * 1024 * 1024)
        store = LogStructuredStore(flash)
        gc_time_us = 0.0
        gc_energy_uj = 0.0
        for round_number in range(200):
            for key_index in range(8):
                store.put(
                    f"r{key_index}",
                    {"round": round_number, "pad": b"\x00" * 900},
                )
            if round_number % 10 == 9:
                store.flush()
                before_us, before_uj = flash.elapsed_us, flash.energy_uj
                if strategy == "full":
                    store.compact()
                else:
                    store.compact_incremental(max_victims=4)
                gc_time_us += flash.elapsed_us - before_us
                gc_energy_uj += flash.energy_uj - before_uj
        gc_table.add_row(
            strategy,
            gc_time_us / 1000.0,
            gc_energy_uj / 1000.0,
            flash.erases,
            flash.wear_skew(),
        )
    gc_table.add_note("200 rounds x 8 hot records; GC every 10 rounds")
    return [table, crossover, gc_table]


def _over_token_scan(profile: str, query: str):
    """One query's latency over the smart token's scan latency."""
    def read(tables: list[Table]) -> float:
        latency = {(row[0], row[1]): row[4] for row in tables[0].rows}
        return (latency[profile, query]
                / latency["smart-token", "scan (size = 37)"])
    return read


def _gc_ratio(tables: list[Table]) -> float:
    gc_ms = {row[0]: row[1] for row in tables[2].rows}
    return gc_ms["incremental"] / gc_ms["full"]


CLAIMS = (
    Claim("a token point lookup costs under half its scan", "metadata/query",
          "device", _over_token_scan("smart-token", "point (kind = bill)"),
          "<", 0.5),
    Claim("the home gateway scans faster than the token", "metadata/query",
          "device", _over_token_scan("home-gateway", "scan (size = 37)"),
          "<", 1),
    Claim("a selective range: the index wins", "metadata/query", "count",
          lambda tables: tables[1].column("index wins")[0], "=="),
    Claim("the full range: the scan wins", "metadata/query", "count",
          lambda tables: tables[1].column("index wins")[-1], "==", False),
    Claim("incremental GC pays off on churn", "secure private store",
          "device", _gc_ratio, "<", 1),
)
