"""The api_redesign deprecation cycle, final stage: the removed
``SimulationConfig.fast`` field is gone entirely, and the ``repro.cli``
module-attribute shims *raise* with a message naming the replacement."""

from __future__ import annotations

import pytest

from repro.core.pulse import PulsePolicy
from repro.runtime.simulator import Simulation, SimulationConfig


class TestFastFlagRemoved:
    def test_fast_true_raises_with_pointer(self):
        # The field is deleted; ``engine=`` is its replacement.
        with pytest.raises(TypeError, match="fast"):
            SimulationConfig(fast=True)

    def test_fast_false_still_accepted(self, tiny_trace, tiny_assignment):
        # The default config runs and emits no warnings (filterwarnings
        # turns repro-internal DeprecationWarnings into errors
        # suite-wide).
        Simulation(
            tiny_trace, tiny_assignment, PulsePolicy(), SimulationConfig()
        ).run()

    def test_engine_argument_is_the_replacement(
        self, tiny_trace, tiny_assignment
    ):
        fleet = Simulation(
            tiny_trace, tiny_assignment, PulsePolicy(), SimulationConfig()
        ).run(engine="fleet")
        ref = Simulation(
            tiny_trace, tiny_assignment, PulsePolicy(), SimulationConfig()
        ).run(engine="reference")
        assert fleet.total_service_time_s == ref.total_service_time_s
        assert fleet.keepalive_cost_usd == ref.keepalive_cost_usd


class TestCliShimsRemoved:
    @pytest.mark.parametrize(
        ("name", "replacement"),
        [
            ("_POLICIES", "repro.api.list_policies"),
            ("_LONG_WINDOW_POLICIES", "keep_alive_window"),
            ("_parse_fid_minute", "repro.utils.specs"),
        ],
    )
    def test_removed_attribute_raises_with_pointer(self, name, replacement):
        import repro.cli as cli

        with pytest.raises(AttributeError, match=replacement):
            getattr(cli, name)

    def test_unknown_attribute_still_raises(self):
        import repro.cli as cli

        with pytest.raises(AttributeError):
            cli._NOT_A_THING

    def test_replacements_exist(self):
        # The error messages point somewhere real.
        from repro.api import list_policies, policy_spec
        from repro.utils.specs import parse_fid_minute

        assert "pulse" in list_policies()
        assert policy_spec("pulse").keep_alive_window > 0
        assert parse_fid_minute("3:120", "--cold") == (3, 120)
