"""Conformance QA subsystem: the correctness analogue of ``repro.obs``.

The paper's central claim — that the Erec-pruned engines return exactly
the recurring patterns of Definitions 1–9 — is guarded here by three
complementary suites, runnable together as one budgeted gate
(``repro qa`` on the command line, :func:`repro.qa.run_qa` from code):

:mod:`repro.qa.relations`
    Metamorphic relations: input transformations (time shift, item
    relabeling, time scaling, disjoint concatenation, event
    duplication) whose effect on the mined pattern set the model
    predicts exactly, checked per engine and per ``jobs`` level.
:mod:`repro.qa.golden`
    Golden corpus: frozen pattern-set snapshots for pinned inputs,
    with diff-style failure reports and ``--update-golden`` refresh
    tooling.  Catches semantics drift that moves *all* engines at once.
:mod:`repro.qa.differential`
    Reusable differential-testing library: the seeded case generator,
    naive-oracle comparison and greedy case-minimizer, importable by
    tests and by the other suites so every failure ships a minimized
    reproducer.

See ``docs/testing.md`` for the catalog of relations with their
paper-definition justifications and the golden refresh workflow.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.qa.differential": (
        "BASE_SEED", "CaseParams", "DifferentialFailure", "DifferentialResult",
        "canonical", "format_reproducer", "mine_canonical", "minimize_case",
        "random_params", "random_rows", "run_differential",
    ),
    "repro.qa.gate": ("QAConfig", "QAReport", "run_qa"),
    "repro.qa.golden": (
        "GOLDEN_CASES", "GoldenCase", "GoldenResult", "golden_diff",
        "run_goldens", "update_goldens",
    ),
    "repro.qa.relations": (
        "RELATIONS", "MetamorphicRelation", "RelationViolation",
        "RelationsResult", "check_relation", "default_case_corpus",
        "engine_matrix", "get_relation", "run_relations",
    ),
})

__all__ = [
    "BASE_SEED",
    "CaseParams",
    "DifferentialFailure",
    "DifferentialResult",
    "GOLDEN_CASES",
    "GoldenCase",
    "GoldenResult",
    "MetamorphicRelation",
    "QAConfig",
    "QAReport",
    "RELATIONS",
    "RelationViolation",
    "RelationsResult",
    "canonical",
    "check_relation",
    "default_case_corpus",
    "engine_matrix",
    "format_reproducer",
    "get_relation",
    "golden_diff",
    "mine_canonical",
    "minimize_case",
    "random_params",
    "random_rows",
    "run_differential",
    "run_goldens",
    "run_qa",
    "run_relations",
    "update_goldens",
]
