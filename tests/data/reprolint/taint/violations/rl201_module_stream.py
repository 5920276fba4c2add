"""Fixture: RL601 — RNG stream constructed at module scope."""

import random

SHUFFLER = random.Random(1234)


def shuffle_members(members):
    SHUFFLER.shuffle(members)
    return members
