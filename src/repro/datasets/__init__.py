"""Workload generators and reference datasets.

The paper evaluates on T10I4D100K (IBM Quest synthetic), the Shop-14
clickstream and a 2013 Twitter hashtag corpus.  None of the latter two
are redistributable, so this subpackage provides faithful synthetic
stand-ins (see the substitution table in DESIGN.md) plus the paper's
running example and a planted-pattern generator with ground truth.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.datasets.clickstream": (
        "ClickstreamConfig", "generate_clickstream",
    ),
    "repro.datasets.noise": ("apply_dropout", "apply_jitter"),
    "repro.datasets.planted": (
        "PlantedBurst", "PlantedWorkload", "generate_planted_workload",
    ),
    "repro.datasets.quest": ("QuestConfig", "generate_quest"),
    "repro.datasets.running_example": (
        "paper_running_example", "paper_running_example_events",
        "paper_table2_patterns",
    ),
    "repro.datasets.twitter": ("TwitterConfig", "generate_twitter"),
})

__all__ = [
    "paper_running_example",
    "paper_running_example_events",
    "paper_table2_patterns",
    "QuestConfig",
    "generate_quest",
    "ClickstreamConfig",
    "generate_clickstream",
    "TwitterConfig",
    "generate_twitter",
    "PlantedBurst",
    "PlantedWorkload",
    "generate_planted_workload",
    "apply_dropout",
    "apply_jitter",
]
