"""Shared fixtures for the durability suite.

One small graph + event stream + service recipe, reused everywhere:
every durability property is a comparison between an uninterrupted
reference run and some recovered run, so the suite keys everything off
the same deterministic workload.
"""

from __future__ import annotations

import pytest

from repro.datasets import wiki_vote
from repro.streaming import StreamingService, synthetic_event_stream
from repro.telemetry import Telemetry

SERVICE_KWARGS = dict(
    epsilon=0.4,
    user_budget=6.0,
    seed=11,
    window=30.0,
    window_budget=1.5,
    compact_every=40,
)


@pytest.fixture(scope="session")
def base_graph():
    return wiki_vote(scale=0.03)


@pytest.fixture(scope="session")
def events(base_graph):
    return synthetic_event_stream(
        base_graph, 200, add_fraction=0.08, remove_fraction=0.05, seed=7
    )


@pytest.fixture
def build_service(base_graph):
    """Factory building identically-configured services on demand."""

    def build(telemetry=None, utility="common_neighbors", **overrides):
        kwargs = {**SERVICE_KWARGS, **overrides}
        return StreamingService(
            base_graph, utility, "exponential", telemetry=telemetry, **kwargs
        )

    return build


def picks_of(responses):
    """Project responses onto the fields the bit-identity gates compare."""
    return [
        (r.user, r.served, tuple(r.recommendations), r.epsilon_spent)
        for r in responses
    ]


@pytest.fixture(scope="session")
def reference(base_graph, events):
    """Uninterrupted non-durable replay: the ground truth to match."""
    from repro.streaming import replay_stream

    telemetry = Telemetry()
    service = StreamingService(
        base_graph, "common_neighbors", "exponential",
        telemetry=telemetry, **SERVICE_KWARGS,
    )
    responses = []
    replay_stream(service, events, batch_size=16, on_response=responses.append)
    return {
        "picks": picks_of(responses),
        "balances": service.service.budgets.export_state(),
        "ledger": telemetry.ledger.raw_rows(),
        "rng_state": service.service._rng.bit_generator.state,
        "stamp": service.stamp,
    }
