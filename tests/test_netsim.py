"""Tests for the network substrate: IPs, ASes, geolocation, pools."""

import random

import pytest

from repro.netsim.asn import AsRegistry
from repro.netsim.geo import DEFAULT_COUNTRY_MIX, GeoDatabase
from repro.netsim.ip import cidr_range, int_to_ip, ip_to_int
from repro.netsim.pools import IpPoolAllocator


def test_ip_round_trip():
    for address in ("0.0.0.0", "10.50.1.200", "255.255.255.255"):
        assert int_to_ip(ip_to_int(address)) == address


def test_ip_to_int_validates():
    for bad in ("1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d"):
        with pytest.raises(ValueError):
            ip_to_int(bad)


def test_int_to_ip_range():
    with pytest.raises(ValueError):
        int_to_ip(-1)
    with pytest.raises(ValueError):
        int_to_ip(2 ** 32)


def test_cidr_range():
    start, end = cidr_range("10.50.0.0", 16)
    assert end - start + 1 == 2 ** 16
    assert int_to_ip(start) == "10.50.0.0"
    assert int_to_ip(end) == "10.50.255.255"


def test_cidr_masks_host_bits():
    start, _ = cidr_range("10.50.3.7", 16)
    assert int_to_ip(start) == "10.50.0.0"


def test_as_registry_lookup():
    registry = AsRegistry()
    registry.register(64500, "BulletShield", "RU", is_bulletproof=True)
    registry.announce(64500, "10.50.0.0", 16)
    system = registry.lookup("10.50.4.4")
    assert system.asn == 64500
    assert system.is_bulletproof
    assert registry.lookup("10.51.0.1") is None
    assert registry.asn_of("10.50.0.1") == 64500


def test_as_registry_rejects_overlap():
    registry = AsRegistry()
    registry.register(1, "A")
    registry.register(2, "B")
    registry.announce(1, "10.0.0.0", 16)
    with pytest.raises(ValueError):
        registry.announce(2, "10.0.128.0", 17)


def test_as_registry_duplicate_asn():
    registry = AsRegistry()
    registry.register(1, "A")
    with pytest.raises(ValueError):
        registry.register(1, "A again")


def test_as_registry_unknown_asn():
    registry = AsRegistry()
    with pytest.raises(KeyError):
        registry.get(9999)


def test_geo_assignment_and_lookup():
    geo = GeoDatabase()
    geo.assign("1.2.3.4", "IN")
    assert geo.country_of("1.2.3.4") == "IN"
    assert geo.country_of("4.3.2.1") is None


def test_geo_sampling_follows_mix():
    geo = GeoDatabase()
    rng = random.Random(1)
    sample = [geo.sample_country(rng) for _ in range(4000)]
    top, share = GeoDatabase.top_country_share(sample)
    assert top == "IN"
    assert 0.35 < share < 0.55


def test_geo_sampling_is_the_weighted_choices_draw():
    # The prebuilt cumulative weights draw exactly what rng.choices
    # draws from the mix, and leave the generator in the same state.
    geo = GeoDatabase()
    countries = [country for country, _ in DEFAULT_COUNTRY_MIX]
    weights = [weight for _, weight in DEFAULT_COUNTRY_MIX]
    rng, twin = random.Random(2017), random.Random(2017)
    for _ in range(20_000):
        assert (geo.sample_country(rng)
                == twin.choices(countries, weights=weights, k=1)[0])
    assert rng.getstate() == twin.getstate()


def test_geo_mix_must_sum_to_one():
    with pytest.raises(ValueError):
        GeoDatabase(default_mix=(("IN", 0.5), ("US", 0.6)))


def test_top_country_share_empty():
    with pytest.raises(ValueError):
        GeoDatabase.top_country_share([])


def test_pool_allocation_sequential():
    registry = AsRegistry()
    registry.register(64500, "A")
    registry.announce(64500, "10.50.0.0", 16)
    allocator = IpPoolAllocator(registry)
    pool = allocator.allocate("p1", "10.50.0.0", 3, asn=64500)
    assert pool.addresses == ["10.50.0.0", "10.50.0.1", "10.50.0.2"]
    # Next allocation from the same base continues where we left off.
    pool2 = allocator.allocate("p2", "10.50.0.0", 2)
    assert pool2.addresses == ["10.50.0.3", "10.50.0.4"]


def test_pool_asn_validation():
    registry = AsRegistry()
    registry.register(64500, "A")
    registry.announce(64500, "10.50.0.0", 16)
    allocator = IpPoolAllocator(registry)
    with pytest.raises(ValueError):
        allocator.allocate("p", "10.99.0.0", 2, asn=64500)


def test_pool_split_across_bases():
    registry = AsRegistry()
    registry.register(1, "A")
    registry.register(2, "B")
    registry.announce(1, "10.50.0.0", 16)
    registry.announce(2, "10.51.0.0", 16)
    allocator = IpPoolAllocator(registry)
    pool = allocator.allocate_split("split", ["10.50.0.0", "10.51.0.0"], 5)
    assert len(pool) == 5
    first_as = {registry.asn_of(a) for a in pool.addresses[:3]}
    second_as = {registry.asn_of(a) for a in pool.addresses[3:]}
    assert first_as == {1}
    assert second_as == {2}


def test_pool_pick_uniform():
    registry = AsRegistry()
    registry.register(1, "A")
    registry.announce(1, "10.50.0.0", 16)
    allocator = IpPoolAllocator(registry)
    pool = allocator.allocate("p", "10.50.0.0", 4)
    rng = random.Random(3)
    picks = {pool.pick(rng) for _ in range(100)}
    assert picks == set(pool.addresses)


def test_pool_size_positive():
    registry = AsRegistry()
    allocator = IpPoolAllocator(registry)
    with pytest.raises(ValueError):
        allocator.allocate("p", "10.0.0.0", 0)
