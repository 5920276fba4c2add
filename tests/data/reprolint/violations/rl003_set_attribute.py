"""Fixture: RL003 — a set-valued attribute feeding iteration."""


class Pool:
    def __init__(self, rng):
        self.rng = rng
        self.dead = set()
        self.banned = {"root"}

    def drop(self, member):
        self.dead.add(member)

    def rejoin(self, count):
        dead = list(self.dead)
        self.rng.shuffle(dead)
        return dead[:count]

    def report(self, callback):
        for member in self.banned:
            callback(member)
        return [member.upper() for member in self.dead]
