"""Fixture: RL601 clean twin — the entity receives its stream."""


def shuffle_members(members, rng):
    rng.shuffle(members)
    return members


class Scheduler:
    def __init__(self, world):
        self.rng = world.rng.stream("scheduler")
