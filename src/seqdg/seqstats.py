"""Repeated-sequence counting over annotation CSVs.

For each category (verb, noun, action = the pair) and each length L, the
table reports how many contiguous label sub-sequences of length 2..L
repeat across domains, i.e. occur in at least two distinct domain ids.
Whether "how many" means distinct patterns or total occurrences is a
reporting choice, so both tallies are emitted side by side.
"""

from __future__ import annotations

from dataclasses import dataclass

from seqdg.data import DataError

__all__ = ["SeqCountTable", "count_repeats", "count_all_categories",
           "format_table", "table_to_dict"]

CATEGORIES = ("verb", "noun", "action")


@dataclass
class SeqCountTable:
    """Cumulative repeat counts for one label category.

    `distinct[L]` counts distinct patterns of length 2..L that occur in
    more than one domain; `occurrences[L]` counts every occurrence of
    those patterns. Both are monotone in L.
    """

    category: str
    max_length: int
    distinct: dict[int, int]
    occurrences: dict[int, int]


def _labels_of(row: dict, category: str):
    if category == "verb":
        return row["verb_class"]
    if category == "noun":
        return row["noun_class"]
    if category == "action":
        return (row["verb_class"], row["noun_class"])
    raise ValueError(f"category must be one of {CATEGORIES}, got {category!r}")


def count_repeats(annotations: list[dict], max_length: int, category: str) -> SeqCountTable:
    """Count cross-domain repeating label n-grams (2 <= n <= max_length).

    Annotations are the rows of the annotation CSV; videos are scanned in
    temporal order and n-grams never cross video boundaries.
    """
    if max_length < 2:
        raise ValueError(f"max_length must be >= 2, got {max_length}")
    videos: dict[str, list[dict]] = {}
    for row in annotations:
        videos.setdefault(row["video_id"], []).append(row)
    grams: dict[int, dict[tuple, tuple[set, int]]] = {n: {} for n in range(2, max_length + 1)}
    for rows in videos.values():
        rows = sorted(rows, key=lambda r: r["temporal_index"])
        domain = rows[0]["domain_id"]
        if any(r["domain_id"] != domain for r in rows):
            raise DataError(f"video {rows[0]['video_id']!r} spans multiple domains")
        labels = [_labels_of(r, category) for r in rows]
        for n in range(2, max_length + 1):
            table = grams[n]
            for i in range(len(labels) - n + 1):
                key = tuple(labels[i:i + n])
                domains, count = table.get(key, (set(), 0))
                domains.add(domain)
                table[key] = (domains, count + 1)
    distinct, occurrences = {}, {}
    run_distinct = run_occurrences = 0
    for n in range(2, max_length + 1):
        for domains, count in grams[n].values():
            if len(domains) >= 2:
                run_distinct += 1
                run_occurrences += count
        distinct[n] = run_distinct
        occurrences[n] = run_occurrences
    return SeqCountTable(category=category, max_length=max_length,
                         distinct=distinct, occurrences=occurrences)


def count_all_categories(annotations: list[dict], max_length: int = 5) -> dict[str, SeqCountTable]:
    return {c: count_repeats(annotations, max_length, c) for c in CATEGORIES}


def format_table(tables: dict[str, SeqCountTable]) -> str:
    """Plain-text table, lengths down the rows, categories across."""
    cats = list(tables)
    max_length = max(t.max_length for t in tables.values())
    lines = ["repeated cross-domain sub-sequences (cumulative up to each length)",
             "length | " + " | ".join(f"{c:>7} (distinct / occurrences)" for c in cats)]
    for n in range(2, max_length + 1):
        cells = [f"{tables[c].distinct[n]:7d} / {tables[c].occurrences[n]:d}" for c in cats]
        lines.append(f"  <= {n} | " + " | ".join(cells))
    return "\n".join(lines)


def table_to_dict(tables: dict[str, SeqCountTable]) -> dict:
    return {c: {"distinct": t.distinct, "occurrences": t.occurrences}
            for c, t in tables.items()}
