"""Fixture: clean counterpart of RL003's set-attribute check — an
insertion-ordered dict where iteration order matters, a set only for
membership and order-free reductions."""


class Pool:
    def __init__(self, rng):
        self.rng = rng
        self.dead = {}
        self.banned = {"root"}

    def drop(self, member):
        self.dead[member] = None

    def rejoin(self, count):
        dead = list(self.dead)
        self.rng.shuffle(dead)
        return dead[:count]

    def report(self, callback, member):
        for name in sorted(self.banned):
            callback(name)
        return (member in self.banned, len(self.banned),
                sorted(name.upper() for name in self.banned))
