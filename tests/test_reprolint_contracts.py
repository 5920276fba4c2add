"""RL601 import-time streams, RL202 stream sharing and RL3xx API-contract
rule tests."""

import textwrap
from pathlib import Path

from repro.lint import LintEngine, lint_source
from repro.lint.rules import DEFAULT_ALLOWLIST

DATA = (Path(__file__).resolve().parent / "data" / "reprolint" /
        "taint")


def fixture_rules(name, kind="violations", path="repro/collusion/x.py",
                  allowlist=None):
    source = (DATA / kind / name).read_text(encoding="utf-8")
    return [f.rule for f in lint_source(source, path=path,
                                        allowlist=allowlist)]


def rules_of(source, path="repro/collusion/x.py", allowlist=None):
    return [f.rule for f in lint_source(textwrap.dedent(source),
                                        path=path, allowlist=allowlist)]


# ----------------------------------------------------------------------
# Import-time RNG construction — RL601 (the test names keep the retired
# RL201 id)
# ----------------------------------------------------------------------
def test_rl201_fixture_pair():
    assert fixture_rules("rl201_module_stream.py") == ["RL601"]
    assert fixture_rules("rl201_injected_stream.py", kind="clean") == []


def test_rl201_flags_module_scope_stream_and_factory():
    assert rules_of("""
        from repro.sim.rng import RngFactory

        FACTORY = RngFactory(1234)
        PACING = FACTORY.stream("pacing")
    """) == ["RL601", "RL601"]


def test_rl201_class_attribute_is_module_scope_state():
    assert rules_of("""
        import random

        class Scheduler:
            rng = random.Random(7)
    """) == ["RL601"]


def test_rl201_is_allowlisted_inside_sim():
    source = """
        import random

        _ROOT = random.Random(1)
    """
    assert rules_of(source, path="repro/sim/rng.py",
                    allowlist=DEFAULT_ALLOWLIST) == []
    assert rules_of(source, path="repro/collusion/x.py",
                    allowlist=DEFAULT_ALLOWLIST) == ["RL601"]
    # Only the factory is exempt: the rest of sim/ and the sanitizer
    # are flagged like any other package.
    assert rules_of(source, path="repro/sim/clock.py",
                    allowlist=DEFAULT_ALLOWLIST) == ["RL601"]
    assert rules_of(source, path="repro/sanitizer/trace.py",
                    allowlist=DEFAULT_ALLOWLIST) == ["RL601"]


# ----------------------------------------------------------------------
# RL202 — cross-entity stream sharing
# ----------------------------------------------------------------------
def test_rl202_fixture_pair():
    assert fixture_rules("rl202_shared_stream.py") == ["RL202",
                                                       "RL202"]
    assert fixture_rules("rl202_private_streams.py", kind="clean") == []


def test_rl202_flags_handing_own_stream_to_another_entity():
    assert rules_of("""
        class Network:
            def __init__(self, world, Website):
                self.rng = world.rng.stream("net")
                self.site = Website(self.rng)
    """) == ["RL202"]


def test_rl202_flags_reaching_into_another_entitys_stream():
    assert rules_of("""
        def pace(gate, network):
            return gate.delay_for(network.rng)
    """) == ["RL202"]


def test_rl202_allows_self_and_world_streams():
    assert rules_of("""
        class Network:
            def __init__(self, world):
                self.rng = world.rng.stream("net")

            def draw(self):
                return self.rng.random()
    """) == []


# ----------------------------------------------------------------------
# RL301 — direct platform writes from abusive-party code
# ----------------------------------------------------------------------
def test_rl301_fixture_pair():
    assert fixture_rules("rl301_direct_write.py") == ["RL301"]
    assert fixture_rules("rl301_via_api.py", kind="clean") == []


def test_rl301_scoped_to_collusion_and_honeypot():
    source = """
        def seed(world, member_id):
            world.platform.like_post(member_id, "post:1")
    """
    assert rules_of(source, path="repro/honeypot/seed.py") == ["RL301"]
    assert rules_of(source, path="repro/experiments/seed.py") == []


def test_rl301_reads_are_free():
    assert rules_of("""
        def scan(world, post_id):
            return world.platform.get_post(post_id)
    """) == []


# ----------------------------------------------------------------------
# RL302 — laundered writes (needs two modules: engine-level test)
# ----------------------------------------------------------------------
def _run_pair(kind):
    engine = LintEngine()
    pairs = [
        ("repro/support/seeding.py", DATA / kind / "rl302_helper.py"),
        ("repro/collusion/tools.py", DATA / kind / "rl302_launder.py"),
    ]
    return engine.run_files(pairs)


def test_rl302_flags_laundered_write():
    report = _run_pair("violations")
    assert [f.rule for f in report.findings] == ["RL302"]
    finding = report.findings[0]
    assert finding.path == "repro/collusion/tools.py"
    assert "seed_profile" in finding.message


def test_rl302_clean_twin_produces_nothing():
    assert _run_pair("clean").findings == []
