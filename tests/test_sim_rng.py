"""Tests for deterministic randomness."""

from repro.sim.rng import RngFactory, derive_seed


def test_derive_seed_deterministic():
    assert derive_seed(1, "a") == derive_seed(1, "a")


def test_derive_seed_varies_by_name_and_seed():
    assert derive_seed(1, "a") != derive_seed(1, "b")
    assert derive_seed(1, "a") != derive_seed(2, "a")


def test_stream_is_shared_instance():
    factory = RngFactory(7)
    assert factory.stream("x") is factory.stream("x")


def test_streams_are_independent():
    first = RngFactory(7)
    second = RngFactory(7)
    # Drawing from one stream must not disturb another.
    first.stream("noise").random()
    a = first.stream("target").random()
    b = second.stream("target").random()
    assert a == b


def test_fresh_does_not_share_state():
    factory = RngFactory(7)
    a = factory.fresh("x")
    b = factory.fresh("x")
    assert a is not b
    assert a.random() == b.random()


def test_child_factory_differs_from_parent():
    factory = RngFactory(7)
    child = factory.child("sub")
    assert (factory.stream("x").random()
            != child.stream("x").random())


def test_same_seed_reproduces_sequences():
    rng1 = RngFactory(11).stream("s")
    seq1 = [rng1.random() for _ in range(5)]
    rng2 = RngFactory(11).stream("s")
    seq2 = [rng2.random() for _ in range(5)]
    assert seq1 == seq2


def test_install_states_warns_on_unknown_stream_name():
    import pytest

    source = RngFactory(7)
    source.stream("known").random()
    snapshot = source.export_state()
    target = RngFactory(7)
    # A typo'd checkpoint key must not silently become a pre-wound
    # stream: the install still happens (legitimate late-created
    # streams keep working) but it is reported.
    with pytest.warns(RuntimeWarning, match="'tpyo' does not exist"):
        target.install_state({"tpyo": snapshot["known"]})
    assert (target.stream("tpyo").random()
            == source.stream("known").random())


def test_install_states_known_names_do_not_warn():
    import warnings

    source = RngFactory(7)
    source.stream("known").random()
    target = RngFactory(7)
    target.stream("known")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        target.install_state(source.export_state())
    assert (target.stream("known").random()
            == source.stream("known").random())
