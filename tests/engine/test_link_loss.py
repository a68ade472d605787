"""The one loss rule: a seeded stream per directed link, owned by the core.

``LinkLoss`` keys each stream by its link, so what one link loses depends
only on what its sender puts on it -- the property below -- and the
rate it loses at is the configured probability -- the binomial check on
the base-case network.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.builder import build_setup
from repro.engine.config import SCALE_PRESETS
from repro.engine.reconfig import LinkLoss
from repro.engine.simulation import make_simulation

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "properties"))
from example_counts import examples  # noqa: E402

LINKS = st.tuples(st.integers(0, 3), st.integers(0, 3))


@settings(max_examples=examples(60), deadline=None)
@given(seed=st.integers(0, 2**31 - 1), order=st.lists(LINKS, max_size=60))
def test_other_links_never_move_a_links_draws(seed, order):
    """Draw the links in ``order``, interleaved; each link's draws equal
    what it draws alone, from a fresh rule of the same seed."""
    interleaved = LinkLoss(seed, 0.5)
    drawn: dict = {}
    for link in order:
        drawn.setdefault(link, []).append(interleaved[link]())
    for link, values in drawn.items():
        alone = LinkLoss(seed, 0.5)
        assert [alone[link]() for _ in values] == values
        assert alone.drops(*link) == (interleaved[link]() < 0.5)


def test_each_link_has_its_own_stream():
    loss = LinkLoss(7, 0.5)
    forward = [loss[0, 1]() for _ in range(4)]
    assert forward != [loss[1, 0]() for _ in range(4)]
    assert set(loss) == {(0, 1), (1, 0)}


def test_the_core_holds_the_rule_only_when_something_can_be_lost():
    lossless = build_setup(SCALE_PRESETS["tiny"])
    lossy = build_setup(SCALE_PRESETS["tiny"].with_(message_loss_probability=0.05))
    assert make_simulation(lossless)._reconfig.loss is None
    assert make_simulation(lossy)._reconfig.loss.probability == 0.05


def test_the_drop_rate_is_the_configured_probability():
    """The paper's base case (100 repositories, 20 items, degree 4) at
    5 % loss: every message is judged once, so the drops are binomial in
    the messages sent; they stay within four standard deviations of
    ``p * messages``."""
    p = 0.05
    config = SCALE_PRESETS["paper"].with_(
        seed=201, n_repositories=100, n_routers=600, n_items=20,
        trace_samples=800, message_loss_probability=p,
    )
    counters = make_simulation(build_setup(config)).run().counters
    n, drops = counters.messages, counters.drops
    assert n > 100_000
    assert abs(drops - p * n) <= 4.0 * math.sqrt(n * p * (1.0 - p)), (drops, n)
