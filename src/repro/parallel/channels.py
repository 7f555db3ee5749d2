"""Inter-worker message layer for the process backend.

Workers exchange *effect frames*: one frame per (sender, pass) carrying
every cross-partition side effect that sender's pass produced for one
peer — token deliveries (with their modelled arrival times) and
consume-time records (the credit returns the peer's senders price their
credit stalls with).  Frames are the unit of ordering; the outgoing
half of each stream (batching, credit windows, the wire codec) lives in
:mod:`~repro.parallel.socket_transport`, the incoming half — a
:class:`FrameInbox` holding frames until the schedule asks for them —
here.

The frame schedule — which pass of which peer a worker must apply
before its own pass ``k`` — lives in the worker loop; this module only
holds and accounts frames.

Control-plane messages (worker <-> coordinator) are plain tuples whose
first element names the kind; see the module docstrings of
``worker``/``coordinator`` for the protocol.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: (link index, dst key, packed token word, arrival ns, rx serdes ns)
Delivery = Tuple[int, Tuple[str, str], int, float, float]
#: (dst key, consume-time ns)
Credit = Tuple[Tuple[str, str], float]


@dataclass
class EffectFrame:
    """Every cross-partition effect of one sender pass, for one peer."""

    sender: str
    pass_no: int
    deliveries: List[Delivery] = field(default_factory=list)
    credits: List[Credit] = field(default_factory=list)

    @property
    def empty(self) -> bool:
        return not self.deliveries and not self.credits


@dataclass
class MetricFrame:
    """Compact telemetry piggybacked on a worker's ``progress``
    control message (no extra pipes).

    Carries the sample points the worker's cycle-keyed sampler emitted
    since its previous report, plus the partition's current position.
    The coordinator uses these only to render live status (``repro
    watch``); the *authoritative* series ships once, in the worker's
    final state fragment, which is what gets merged into the parent's
    telemetry — so live reporting can never perturb the bit-identical
    result.
    """

    part: str
    frontier: int
    busy_ns: float
    #: new (target cycle, {metric: value}) points since the last frame
    samples: List[tuple] = field(default_factory=list)


class FrameInbox:
    """Incoming half of one peer->worker frame stream.

    Holds frames keyed by pass number until the worker's schedule asks
    for them, and decides when a standalone acknowledgement is owed
    (the reverse conduit may be idle — e.g. a finished worker serving
    frames to a still-running peer).
    """

    def __init__(self, peer: str, ack_every: int = 8):
        self.peer = peer
        self.pending: Dict[int, EffectFrame] = {}
        self.applied_through = 0
        self.ack_every = max(1, ack_every)
        self._last_ack_sent = 0

    def offer(self, frames: List[EffectFrame]) -> None:
        for frame in frames:
            self.pending[frame.pass_no] = frame

    def has(self, pass_no: int) -> bool:
        return pass_no in self.pending

    def take(self, pass_no: int) -> EffectFrame:
        frame = self.pending.pop(pass_no)
        if frame.pass_no > self.applied_through:
            self.applied_through = frame.pass_no
        return frame

    def standalone_ack_due(self) -> Optional[int]:
        """Pass number to acknowledge out-of-band, or None."""
        if self.applied_through - self._last_ack_sent >= self.ack_every:
            return self.applied_through
        return None

    def note_ack_sent(self, through_pass: int) -> None:
        if through_pass > self._last_ack_sent:
            self._last_ack_sent = through_pass
