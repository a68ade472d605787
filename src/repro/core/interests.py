"""Per-repository interest profiles.

Section 6.1: each repository requests a subset of the data items, picking
each item independently with 50% probability, and draws a coherency
tolerance for every picked item from the T% stringent / lax mix.

A repository's *own* requirement is what its users need and what fidelity
is measured against; LeLA may later tighten the coherency at which the
repository actually *receives* an item to serve its dependents
(Section 4's cascading augmentation).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.core.items import CoherencyMix, DataItem

__all__ = ["InterestProfile", "generate_interests"]


@dataclass
class InterestProfile:
    """What one repository wants: items and their coherency tolerances.

    Attributes:
        repository: Node id of the repository.
        requirements: Mapping ``item_id -> c`` (the user-level tolerance).
    """

    repository: int
    requirements: dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for item_id, c in self.requirements.items():
            if c <= 0:
                raise ConfigurationError(
                    f"repository {self.repository}: tolerance for item "
                    f"{item_id} must be positive, got {c!r}"
                )

    @property
    def items(self) -> list[int]:
        """Sorted ids of the items this repository stores."""
        return sorted(self.requirements)

    def __len__(self) -> int:
        return len(self.requirements)

    def __contains__(self, item_id: int) -> bool:
        return item_id in self.requirements


def generate_interests(
    repositories: list[int],
    items: list[DataItem],
    mix: CoherencyMix,
    rng: np.random.Generator,
    subscription_probability: float = 0.5,
    ensure_nonempty: bool = True,
) -> dict[int, InterestProfile]:
    """Generate the paper's interest model for every repository.

    Args:
        repositories: Repository node ids.
        items: The data-item universe.
        mix: Stringent/lax tolerance mix (parameterised by T%).
        rng: Random stream.
        subscription_probability: Probability a repository wants a given
            item (paper: 0.5).
        ensure_nonempty: Give a repository that drew no items one random
            item, so every repository participates (a repository with no
            interests would be unreachable by construction).

    Returns:
        Mapping ``repository id -> InterestProfile``.
    """
    if not 0.0 < subscription_probability <= 1.0:
        raise ConfigurationError(
            "subscription_probability must be in (0, 1], "
            f"got {subscription_probability!r}"
        )
    if not items:
        raise ConfigurationError("need at least one data item")

    profiles: dict[int, InterestProfile] = {}
    item_ids = np.array([item.item_id for item in items])
    for repo in repositories:
        wanted = item_ids[rng.random(len(item_ids)) < subscription_probability]
        if wanted.size == 0 and ensure_nonempty:
            wanted = np.array([rng.choice(item_ids)])
        tolerances = mix.draw(wanted.size, rng)
        profiles[repo] = InterestProfile(
            repository=repo,
            requirements={int(i): float(c) for i, c in zip(wanted, tolerances)},
        )
    return profiles
