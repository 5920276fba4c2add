"""Tests for the social platform core."""

import pytest

from repro.socialnet.account import AccountStatus
from repro.socialnet.errors import (
    AccountSuspendedError,
    DuplicateLikeError,
    UnknownAccountError,
    UnknownPageError,
    UnknownPostError,
)


def test_register_account(world):
    account = world.platform.register_account("Alice", country="IN")
    assert account.account_id.startswith("acct:")
    assert account.country == "IN"
    assert account.is_active


def test_honeypot_flag(world):
    account = world.platform.register_account("Bait", is_honeypot=True)
    assert account.is_honeypot


def test_unknown_account_raises(world):
    with pytest.raises(UnknownAccountError):
        world.platform.get_account("acct:999")


def test_create_post_and_timeline(world):
    alice = world.platform.register_account("Alice")
    post = world.platform.create_post(alice.account_id, "hello")
    timeline = world.platform.timeline(alice.account_id)
    assert [p.post_id for p in timeline] == [post.post_id]
    assert post.text == "hello"


def test_like_post_records_attribution(world):
    alice = world.platform.register_account("Alice")
    bob = world.platform.register_account("Bob")
    post = world.platform.create_post(alice.account_id, "x")
    like = world.platform.like_post(bob.account_id, post.post_id,
                                    via_app_id="app:1",
                                    source_ip="10.0.0.1")
    assert like.via_app_id == "app:1"
    assert like.source_ip == "10.0.0.1"
    assert post.liked_by(bob.account_id)


def test_duplicate_like_rejected(world):
    alice = world.platform.register_account("Alice")
    bob = world.platform.register_account("Bob")
    post = world.platform.create_post(alice.account_id, "x")
    world.platform.like_post(bob.account_id, post.post_id)
    with pytest.raises(DuplicateLikeError):
        world.platform.like_post(bob.account_id, post.post_id)


def test_like_unknown_post(world):
    bob = world.platform.register_account("Bob")
    with pytest.raises(UnknownPostError):
        world.platform.like_post(bob.account_id, "post:404")


def test_comment_on_post(world):
    alice = world.platform.register_account("Alice")
    bob = world.platform.register_account("Bob")
    post = world.platform.create_post(alice.account_id, "x")
    comment = world.platform.comment_on_post(bob.account_id, post.post_id,
                                             "nice")
    assert comment.text == "nice"
    assert post.comment_count == 1


def test_page_likes(world):
    owner = world.platform.register_account("Owner")
    fan = world.platform.register_account("Fan")
    page = world.platform.create_page(owner.account_id, "My Page")
    world.platform.like_page(fan.account_id, page.page_id)
    assert page.like_count == 1
    with pytest.raises(DuplicateLikeError):
        world.platform.like_page(fan.account_id, page.page_id)


def test_unknown_page(world):
    fan = world.platform.register_account("Fan")
    with pytest.raises(UnknownPageError):
        world.platform.like_page(fan.account_id, "page:404")


def test_suspended_account_cannot_act(world):
    alice = world.platform.register_account("Alice")
    bob = world.platform.register_account("Bob")
    post = world.platform.create_post(alice.account_id, "x")
    world.platform.suspend_account(bob.account_id)
    with pytest.raises(AccountSuspendedError):
        world.platform.like_post(bob.account_id, post.post_id)
    world.platform.reinstate_account(bob.account_id)
    world.platform.like_post(bob.account_id, post.post_id)


def test_suspension_status(world):
    alice = world.platform.register_account("Alice")
    world.platform.suspend_account(alice.account_id)
    assert alice.status is AccountStatus.SUSPENDED


def test_befriend_mutual(world):
    a = world.platform.register_account("A")
    b = world.platform.register_account("B")
    world.platform.befriend(a.account_id, b.account_id)
    assert b.account_id in a.friend_ids
    assert a.account_id in b.friend_ids


def test_remove_like(world):
    alice = world.platform.register_account("Alice")
    bob = world.platform.register_account("Bob")
    post = world.platform.create_post(alice.account_id, "x")
    world.platform.like_post(bob.account_id, post.post_id)
    assert world.platform.remove_like(post.post_id, bob.account_id)
    assert post.like_count == 0
    assert not world.platform.remove_like(post.post_id, bob.account_id)
    # After removal the account may like again.
    world.platform.like_post(bob.account_id, post.post_id)


def test_activity_log_records_actions(world):
    alice = world.platform.register_account("Alice")
    bob = world.platform.register_account("Bob")
    post = world.platform.create_post(alice.account_id, "x")
    world.platform.like_post(bob.account_id, post.post_id)
    records = world.platform.activity_log.for_actor(bob.account_id)
    assert len(records) == 1
    assert records[0].verb == "like"
    assert records[0].target_owner_id == alice.account_id


def test_activity_log_merged_sorted(world):
    alice = world.platform.register_account("Alice")
    bob = world.platform.register_account("Bob")
    post = world.platform.create_post(alice.account_id, "x")
    world.clock.advance(10)
    world.platform.like_post(bob.account_id, post.post_id)
    merged = world.platform.activity_log.for_actors(
        [alice.account_id, bob.account_id])
    assert [r.verb for r in merged] == ["post", "like"]
    assert merged[0].created_at <= merged[1].created_at


def test_activity_log_truncate_restores_the_mark(world):
    platform = world.platform
    log = platform.activity_log
    alice = platform.register_account("Alice")
    bob = platform.register_account("Bob")
    post = platform.create_post(alice.account_id, "x")
    mark = log.mark()
    alice_before = log.for_actor(alice.account_id)

    carol = platform.register_account("Carol")
    platform.like_post(bob.account_id, post.post_id)
    platform.create_post(alice.account_id, "y")
    platform.like_post(carol.account_id, post.post_id)
    assert len(log) == mark + 3
    assert [r.actor_id for r in log.export_delta(mark)] == [
        bob.account_id, alice.account_id, carol.account_id]

    log.truncate(mark)
    assert len(log) == mark
    assert log.for_actor(alice.account_id) == alice_before
    # Bob and Carol acted only after the mark: truncating empties them,
    # and their actors are dropped, not left as empty lists.
    assert bob.account_id not in log._by_actor
    assert carol.account_id not in log._by_actor
    assert log.export_delta(mark) == []
