"""Per-rule unit tests for the reprolint analyzers (RL001-RL005)."""

import textwrap
from pathlib import Path

from repro.lint import lint_source
from repro.lint.findings import Severity
from repro.lint.rules import DEFAULT_ALLOWLIST

FIXTURES = Path(__file__).resolve().parent / "data" / "reprolint"


def rules_of(source, path="repro/module.py", allowlist=None):
    findings = lint_source(textwrap.dedent(source), path=path,
                           allowlist=allowlist)
    return [finding.rule for finding in findings]


# ----------------------------------------------------------------------
# RL001 — wall clock
# ----------------------------------------------------------------------
def test_rl001_flags_time_and_datetime_calls():
    assert rules_of("""
        import time
        from datetime import datetime

        def f():
            a = time.time()
            b = time.monotonic()
            time.sleep(1)
            return a, b, datetime.now(), datetime.utcnow()
    """) == ["RL001"] * 5


def test_rl001_sees_through_aliases():
    assert rules_of("""
        import time as t
        from time import perf_counter as pc

        def f():
            return t.time() + pc()
    """) == ["RL001", "RL001"]


def test_rl001_ignores_shadowing_locals():
    # A parameter named ``time`` is not the time module.
    assert rules_of("""
        def f(time):
            return time.time()
    """) == []


def test_rl001_allowlists_the_perf_shell():
    source = """
        import time

        def f():
            return time.perf_counter()
    """
    assert rules_of(source, path="repro/perf/instrumentation.py",
                    allowlist=DEFAULT_ALLOWLIST) == []
    assert rules_of(source, path="repro/sim/clock.py",
                    allowlist=DEFAULT_ALLOWLIST) == ["RL001"]


# ----------------------------------------------------------------------
# RL002 — global / unseeded randomness
# ----------------------------------------------------------------------
def test_rl002_flags_module_level_random_calls():
    assert rules_of("""
        import random
        from random import randint

        def f(xs):
            random.shuffle(xs)
            return random.choice(xs), randint(0, 5)
    """) == ["RL002"] * 3


def test_rl002_flags_unseeded_and_system_random():
    # The unseeded construction also draws RL601: any raw Random is
    # invisible to the sanitizer, seeded or not.
    assert rules_of("""
        import random

        def f():
            return random.Random(), random.SystemRandom()
    """) == ["RL002", "RL601", "RL002"]


def test_rl002_accepts_seeded_random_and_streams():
    # RL002 accepts the explicit seed; the RL6xx sanitizer family still
    # flags the raw construction (its draws bypass the shadow trace).
    assert rules_of("""
        import random

        def f(world, seed):
            rng = world.rng.stream("net")
            backup = random.Random(seed)
            return rng.random() + backup.random()
    """) == ["RL601"]


def test_rl002_flags_numpy_global_state():
    assert rules_of("""
        import numpy as np

        def f():
            np.random.seed(0)
            return np.random.rand(3), np.random.default_rng()
    """) == ["RL002"] * 3
    assert rules_of("""
        import numpy as np

        def f(seed):
            return np.random.default_rng(seed)
    """) == []


def test_rl002_owns_module_global_getstate():
    # ``random.getstate()`` reads the shared global generator: RL002's
    # finding, and no other rule's.
    assert rules_of("""
        import random

        def f():
            return random.getstate()
    """) == ["RL002"]


# ----------------------------------------------------------------------
# RL003 — nondeterministic ordering
# ----------------------------------------------------------------------
def test_rl003_flags_set_iteration_and_listdir():
    assert rules_of("""
        import os

        def f(cb, d, xs):
            for x in {1, 2, 3}:
                cb(x)
            for name in os.listdir(d):
                cb(name)
            return list(set(xs))
    """) == ["RL003"] * 3


def test_rl003_flags_id_keyed_sorts():
    assert rules_of("""
        def f(xs):
            xs.sort(key=id)
            return sorted(xs, key=lambda x: id(x))
    """) == ["RL003", "RL003"]


def test_rl003_accepts_sorted_wrapping_and_membership():
    assert rules_of("""
        import os

        def f(cb, d, xs):
            for x in sorted({1, 2, 3}):
                cb(x)
            for name in sorted(os.listdir(d)):
                cb(name)
            seen = set(xs)
            return ("a" in seen, len(set(xs)), sorted(xs, key=str))
    """) == []


def test_rl003_set_comprehension_source_flagged():
    assert rules_of("""
        def f(xs):
            return [x for x in set(xs)]
    """) == ["RL003"]


def test_rl003_flags_set_valued_attribute_iteration():
    source = (FIXTURES / "violations" / "rl003_set_attribute.py"
              ).read_text(encoding="utf-8")
    findings = lint_source(source, path="repro/module.py")
    assert [(f.rule, f.line) for f in findings] == [
        ("RL003", 14), ("RL003", 19), ("RL003", 21)]
    assert "self.dead" in findings[0].message


def test_rl003_accepts_ordered_and_reduced_attributes():
    source = (FIXTURES / "clean" / "rl003_ordered_attribute.py"
              ).read_text(encoding="utf-8")
    assert lint_source(source, path="repro/module.py") == []


def test_rl003_set_attribute_is_scoped_to_its_class():
    assert rules_of("""
        class A:
            def __init__(self):
                self.members = set()

        class B:
            def __init__(self, members):
                self.members = members

            def walk(self, other):
                return list(self.members) + list(other.members)
    """) == []


# ----------------------------------------------------------------------
# RL004 — entropy / environment
# ----------------------------------------------------------------------
def test_rl004_flags_uuid_secrets_urandom_environ_hash():
    assert rules_of("""
        import os
        import secrets
        import uuid

        def f():
            a = uuid.uuid4()
            b = secrets.token_hex(8)
            c = os.urandom(8)
            d = os.environ.get("HOME")
            e = os.getenv("HOME")
            return a, b, c, d, e, hash("x")
    """) == ["RL004"] * 6


def test_rl004_accepts_stable_digests_and_uuid5():
    assert rules_of("""
        import hashlib
        import uuid

        def f(ns, name):
            stable = uuid.uuid5(ns, name)
            return stable, hashlib.blake2b(name.encode()).hexdigest()
    """) == []


def test_rl004_hash_shadowed_by_local_def_is_fine():
    assert rules_of("""
        def hash(x):
            return 7

        def f():
            return hash("x")
    """) == []


def test_rl004_environ_allowlisted_in_perf_shell():
    # The perf shell is exempt from RL001 only: reading the
    # environment there is a finding like anywhere else.
    source = """
        import os

        def f():
            return os.environ.get("PYTHONHASHSEED")
    """
    assert rules_of(source, path="repro/perf/instrumentation.py",
                    allowlist=DEFAULT_ALLOWLIST) == ["RL004"]


# ----------------------------------------------------------------------
# RL005 — exception discipline
# ----------------------------------------------------------------------
def test_rl005_flags_bare_and_broad_swallowers():
    findings = lint_source(textwrap.dedent("""
        def f(x):
            try:
                return x()
            except:
                pass

        def g(x):
            try:
                return x()
            except Exception:
                return None
    """))
    assert [f.rule for f in findings] == ["RL005", "RL005"]
    assert findings[0].severity == Severity.WARNING


def test_rl005_accepts_reraise_use_logging_and_narrow():
    assert rules_of("""
        import warnings

        def f(x):
            try:
                return x()
            except ValueError:
                return None

        def g(x):
            try:
                return x()
            except Exception:
                raise

        def h(x):
            try:
                return x()
            except Exception as error:
                return repr(error)

        def k(x):
            try:
                return x()
            except Exception as error:
                warnings.warn(f"boom {error}", stacklevel=2)
                return None
    """) == []


def test_rl005_broad_inside_tuple_is_still_broad():
    assert rules_of("""
        def f(x):
            try:
                return x()
            except (ValueError, Exception):
                return None
    """) == ["RL005"]
