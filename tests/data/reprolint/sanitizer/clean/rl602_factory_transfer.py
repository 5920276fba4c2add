"""Fixture: clean counterpart of RL602 — factory-level state transfer."""


def move_streams(source_factory, target_factory):
    target_factory.install_state(source_factory.export_state())
