"""DMA engine: byte-level transfer bookkeeping between devices.

The cost of every transfer is already captured by the paper's models
(Eq. 1/2 charge migrations and faults in line-access units).  The DMA
engine adds the *mechanical* view — how many pages and bytes crossed
each channel — which examples and reports use to show where the traffic
went, and which tests use to cross-check the model-level counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.mmu.page import PageLocation


class Channel:
    """A directed transfer path between two devices.

    Channels are interned: ``Channel(source, destination)`` returns the
    one immutable instance per pair, so a channel hashes and compares
    by identity and keying the transfer log costs a C-level pointer
    hash instead of a Python-level hash over two enum members.
    """

    __slots__ = ("source", "destination")

    source: PageLocation
    destination: PageLocation

    def __new__(cls, source: PageLocation,
                destination: PageLocation) -> "Channel":
        interned = _CHANNELS.get((source, destination))
        if interned is None:
            raise ValueError(
                f"no DMA channel from {source} to {destination}")
        return interned

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("channels are immutable")

    def __repr__(self) -> str:
        return (f"Channel(source={self.source!r}, "
                f"destination={self.destination!r})")

    def __str__(self) -> str:
        return f"{self.source}->{self.destination}"

    def __reduce__(self) -> tuple:
        # Copies and unpickled channels resolve to the interned one.
        return Channel, (self.source, self.destination)


def _make_channel(source: PageLocation, destination: PageLocation) -> Channel:
    made = object.__new__(Channel)
    object.__setattr__(made, "source", source)
    object.__setattr__(made, "destination", destination)
    return made


#: Interned channel objects, one per (source, destination) pair (there
#: are at most 6 directed channels).
_CHANNELS: dict[tuple[PageLocation, PageLocation], Channel] = {
    (source, destination): _make_channel(source, destination)
    for source in PageLocation
    for destination in PageLocation
    if source is not destination
}


def channel(source: PageLocation, destination: PageLocation) -> Channel:
    """The interned :class:`Channel` for a (source, destination) pair,
    the same object ``Channel(source, destination)`` returns.

    Batched kernels and the manager hoist the channels they charge and
    update ``DMAEngine.transfers`` directly; interning keeps them
    keying the transfer log exactly as :meth:`DMAEngine.transfer_page`
    does.
    """
    return _CHANNELS[(source, destination)]


@dataclass
class DMAEngine:
    """Counts page transfers per directed channel."""

    page_size: int
    transfers: dict[Channel, int] = field(default_factory=dict)

    def transfer_page(
        self, source: PageLocation, destination: PageLocation
    ) -> None:
        if source is destination:
            raise ValueError("DMA transfer requires distinct endpoints")
        channel = _CHANNELS[(source, destination)]
        transfers = self.transfers
        transfers[channel] = transfers.get(channel, 0) + 1

    def pages_moved(
        self,
        source: PageLocation | None = None,
        destination: PageLocation | None = None,
    ) -> int:
        """Pages moved over channels matching the given endpoints."""
        return sum(
            count
            for channel, count in self.transfers.items()
            if (source is None or channel.source is source)
            and (destination is None or channel.destination is destination)
        )

    def bytes_moved(
        self,
        source: PageLocation | None = None,
        destination: PageLocation | None = None,
    ) -> int:
        return self.pages_moved(source, destination) * self.page_size

    @property
    def total_pages_moved(self) -> int:
        return sum(self.transfers.values())

    def summary(self) -> dict[str, int]:
        """Per-channel page counts keyed by ``SRC->DST`` strings."""
        return {str(channel): count for channel, count in self.transfers.items()}
