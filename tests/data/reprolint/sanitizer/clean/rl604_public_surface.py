"""Fixture: clean counterpart of RL604 — the public factory surface."""


def grab(factory):
    return factory.stream("organic")


def use(factory):
    rng = grab(factory)
    return rng.random()


def snapshot(factory):
    return factory.export_state()
