"""Seeded input files and the reference answers they are checked against.

Every input is a Quest (T10I4D100K-style) database from the program's
own generator, at ``scale`` x 100 000 transactions.  The generator's
structure seed is fixed per tenant (0 or 1); the benchmark's ``--seed``
draws a permutation of the 941 item labels.  Recurring-pattern mining
does not depend on item names, so two seeds give different files and
different answers that cost the same work: the spread between runs then
measures the program, not the draw of the generator.  For the same
reason a reference answer is mined once per structure, with an engine
other than the one under test, and renamed for each seed.

Generated structures and their reference answers are kept under
``.bench_out/cache``, keyed by a digest of ``src/`` so that a change to
the program recomputes them.
"""

from __future__ import annotations

import hashlib
import io
import os
import random
from pathlib import Path
from typing import Dict

#: ``QuestConfig.n_items``: items are named ``i0`` .. ``i940``.
QUEST_ITEMS = 941


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _write_atomically(path: Path, text: str) -> None:
    partial = path.with_name(f"{path.name}.{os.getpid()}.partial")
    partial.write_text(text, encoding="utf-8")
    partial.replace(path)


def patterns_tsv(patterns) -> str:
    """The pattern set exactly as ``--save-patterns`` writes it."""
    from repro.patterns_io import save_patterns

    buffer = io.StringIO()
    save_patterns(patterns, buffer)
    return buffer.getvalue()


class Structure:
    """One Quest database before relabelling, with its cached answers."""

    def __init__(self, root: Path, scale: float, structure_seed: int):
        self.cache = root / ".bench_out" / "cache" / (
            f"quest-{scale:g}-s{structure_seed}-{_source_digest(root)}"
        )
        self.cache.mkdir(parents=True, exist_ok=True)
        self.path = self.cache / "input.tsv"
        if not self.path.exists():
            from repro.bench.workloads import quest_workload
            from repro.timeseries.io import save_transactional_database

            buffer = io.StringIO()
            save_transactional_database(
                quest_workload(scale, seed=structure_seed), buffer
            )
            _write_atomically(self.path, buffer.getvalue())
        self.rows = [
            line.split("\t")
            for line in self.path.read_text(encoding="utf-8").splitlines()
        ]
        self.facts = {
            "transactions": len(self.rows),
            "distinct_items": len(
                {item for _, items in self.rows for item in items.split()}
            ),
        }

    def answer(self, engine: str, per: float, min_ps: float):
        """The pattern set at min_rec 1, mined by ``engine`` once."""
        from repro.patterns_io import load_patterns

        path = self.cache / f"{engine}-per{per:g}-minps{min_ps:g}.tsv"
        if not path.exists():
            from repro import mine_recurring_patterns
            from repro.timeseries.io import load_transactional_database

            found = mine_recurring_patterns(
                load_transactional_database(self.path), per, min_ps, 1,
                engine=engine,
            )
            _write_atomically(path, patterns_tsv(found))
        return load_patterns(path)


class Seeded:
    """A structure under the item labels the run's seed draws."""

    def __init__(self, structure: Structure, seed: int, tag: str):
        rng = random.Random(f"{seed}:{tag}")
        self.structure = structure
        self._names: Dict[str, str] = {
            f"i{k}": f"i{label}" for k, label in enumerate(
                rng.sample(range(QUEST_ITEMS), QUEST_ITEMS)
            )
        }

    def write(self, path: Path) -> None:
        names = self._names
        with open(path, "w", encoding="utf-8") as handle:
            for ts, items in self.structure.rows:
                handle.write(
                    ts + "\t" + " ".join(names[i] for i in items.split())
                    + "\n"
                )

    def describe(self, path: Path) -> Dict[str, int]:
        return {**self.structure.facts, "file_bytes": path.stat().st_size}

    def rename(self, patterns):
        """An answer for the structure, in this seed's labels."""
        from repro.core.model import RecurringPattern, RecurringPatternSet

        return RecurringPatternSet(
            RecurringPattern(
                items=frozenset(self._names[item] for item in p.items),
                support=p.support,
                intervals=p.intervals,
            )
            for p in patterns
        )
