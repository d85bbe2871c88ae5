"""A copy-on-write bucketed map: the structure sharing behind chain state.

The chain keeps one :class:`~repro.chain.state.ChainState` per block,
and every block, mining template and fork trial starts from a copy of
its parent's.  A block touches a handful of keys, so the map is split
into :data:`FANOUT` plain dicts and a copy shares all of them:
``copy()`` duplicates only the list of bucket references and revokes
write ownership on *both* sides, and the first write to a bucket after
that clones that one bucket.  Whatever neither side writes stays one
object shared by every state descended from it.

Buckets handed out by reads may be shared with other maps — only
:meth:`CowMap.edit` returns one that is safe to mutate.
"""

from __future__ import annotations

from typing import Callable, Generic, Iterator, TypeVar

K = TypeVar("K")
V = TypeVar("V")

#: Buckets per map; ``bucket_of`` must return an index below it.
FANOUT = 256


def leading_byte(key: bytes) -> int:
    """Bucket index of a non-empty hash-like ``bytes`` key."""
    return key[0]


class CowMap(Generic[K, V]):
    """``dict``-like map whose copies share every bucket neither side wrote.

    ``bucket_of`` maps a key to its bucket index.  ``clone`` duplicates
    one bucket; it defaults to a shallow ``dict`` copy, which is right
    for immutable values (a map of mutable values passes a deeper one).
    """

    __slots__ = ("_bucket_of", "_clone", "_buckets", "_owned")

    def __init__(
        self,
        bucket_of: Callable[[K], int],
        clone: Callable[[dict[K, V]], dict[K, V]] = dict,
    ) -> None:
        self._bucket_of = bucket_of
        self._clone = clone
        # Every bucket starts as one shared empty dict that nobody owns,
        # so a new map costs no dict until its first write.
        self._buckets: list[dict[K, V]] = [{}] * FANOUT
        self._owned = bytearray(FANOUT)

    def copy(self) -> "CowMap[K, V]":
        """An independent map in O(FANOUT): no entry is copied until written."""
        twin = CowMap(self._bucket_of, self._clone)
        twin._buckets = self._buckets.copy()
        self._owned = bytearray(FANOUT)
        return twin

    # -- reads ---------------------------------------------------------------

    def get(self, key: K, default=None):
        return self._buckets[self._bucket_of(key)].get(key, default)

    def __getitem__(self, key: K) -> V:
        return self._buckets[self._bucket_of(key)][key]

    def __contains__(self, key: K) -> bool:
        return key in self._buckets[self._bucket_of(key)]

    def __len__(self) -> int:
        return sum(map(len, self._buckets))

    def values(self) -> Iterator[V]:
        for bucket in self._buckets:
            yield from bucket.values()

    # -- writes --------------------------------------------------------------

    def edit(self, key: K) -> dict[K, V]:
        """The bucket holding ``key``, private to this map and safe to mutate."""
        index = self._bucket_of(key)
        bucket = self._buckets[index]
        if not self._owned[index]:
            bucket = self._buckets[index] = self._clone(bucket)
            self._owned[index] = 1
        return bucket

    def __setitem__(self, key: K, value: V) -> None:
        self.edit(key)[key] = value

    def __delitem__(self, key: K) -> None:
        del self.edit(key)[key]
