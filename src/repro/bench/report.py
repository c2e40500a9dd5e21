"""Consolidated experiment report generation.

``python -m repro report`` runs every experiment and writes one
markdown file with all tables and claim-row verdicts — the artifact to
attach to a reproduction claim.
"""

from __future__ import annotations

import pathlib
import time

from . import ALL_EXPERIMENTS, check
from .tables import Table

_HEADER = """# Trusted Cells reproduction — consolidated experiment report

Generated by `python -m repro report`. Every experiment's tables are
reproduced verbatim below, together with the machine-checked verdict of
each of its claim rows. See `EXPERIMENTS.md` for interpretation and
`DESIGN.md` for the experiment-to-claim mapping.
"""


def _table_to_markdown(table: Table) -> str:
    lines = [f"**{table.title}**", ""]
    lines.append("| " + " | ".join(table.columns) + " |")
    lines.append("|" + "|".join("---" for _ in table.columns) + "|")
    from .tables import _format_cell

    for row in table.rows:
        lines.append(
            "| " + " | ".join(_format_cell(value) for value in row) + " |"
        )
    for note in table.notes:
        lines.append("")
        lines.append(f"*{note}*")
    return "\n".join(lines)


def generate_report(
    output_path: str | pathlib.Path,
    experiments: list[str] | None = None,
) -> dict[str, bool]:
    """Run experiments and write the markdown report.

    Returns ``{experiment: every claim row held}``.
    """
    names = experiments or list(ALL_EXPERIMENTS)
    sections = [_HEADER]
    verdicts: dict[str, bool] = {}
    for name in names:
        module = ALL_EXPERIMENTS[name]
        started = time.time()
        tables = module.run()
        elapsed = time.time() - started
        rows = check(module, tables)
        verdicts[name] = all(row.ok for row in rows)
        sections.append(f"\n## {name}\n")
        sections.append(
            f"Claim rows: **{'HOLDS' if verdicts[name] else 'FAILED'}** "
            f"(ran in {elapsed:.1f}s)\n"
        )
        sections.append("```")
        sections.extend(row.line() for row in rows)
        sections.append("```\n")
        for table in tables:
            sections.append(_table_to_markdown(table))
            sections.append("")
    output = pathlib.Path(output_path)
    output.write_text("\n".join(sections))
    return verdicts
