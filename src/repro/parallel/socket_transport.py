"""The process backend's data plane: packed frame records over sockets.

Every worker-to-worker frame stream — within one box or across the
farm's (virtual) hosts — travels as length-prefixed binary records over
TCP or Unix-domain stream sockets:

* :class:`FramePacker` — packs a batch of
  :class:`~repro.parallel.channels.EffectFrame` into one struct-coded
  record.  Token payloads are the packed channel words, serialized as
  fixed-width little-endian byte strings sized from the destination
  channel's codec; floats travel as IEEE-754 doubles (``<d``), which
  round-trip exactly, so the process backend is bit-identical to the
  in-process loop by construction.
* :func:`rendezvous_plan` / :func:`make_listeners` — the spawner binds
  one rendezvous listener per partition that has a higher-order linked
  peer *before* forking, so children inherit live listening sockets and
  a connect can never race the bind.
* :func:`connect_with_backoff` — bounded exponential-backoff connect
  with a configurable deadline (``REPRO_SOCKET_CONNECT_TIMEOUT``);
  setup-time transients (a peer still forking) retry, a dead address
  raises :class:`~repro.errors.SocketSetupError`.
* :func:`establish_channels` — the worker-side rendezvous: connect to
  every lower-order socket peer (sending a hello record naming
  ourselves), then accept from every higher-order one (reading theirs).
  Connects complete against the listen backlog without the acceptor
  scheduling, so the two phases cannot deadlock across workers.
* :class:`SocketChannel` — one established peer stream.  Non-blocking
  both ways: ``drain`` reads whatever bytes are available and returns
  only *complete* records (partial reads simply stay buffered; a peer
  vanishing mid-frame surfaces as ``closed`` with the torn record
  discarded), writes stage into a bounded pending buffer so a slow
  peer backpressures the sender instead of growing memory.
* :class:`SocketConduit` — the outgoing half of one worker->peer frame
  stream: batching, the credit window, and the blocked-write
  wait-step/abandon loop.

Sockets signal peer death natively (EOF / ``ECONNRESET``), so worker
death needs no extra detector — which is also what lets the farm layer
stretch the same plane across (virtual) hosts.  The socket family comes
from ``REPRO_SOCKET_FAMILY`` (``tcp`` default, ``unix`` for same-box
runs).
"""

from __future__ import annotations

import os
import socket
import struct
import tempfile
import time
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import SocketSetupError
from .channels import EffectFrame

_LEN = struct.Struct("<I")

#: record kinds
_KIND_FRAMES = 1
_KIND_ACK = 2

_REC_HDR = struct.Struct("<BQI")      # kind, ack/through, n_frames
_FRAME_HDR = struct.Struct("<QII")    # pass_no, n_deliveries, n_credits
_DELIV_HDR = struct.Struct("<Idd")    # link index, arrive ns, rx ns
_CREDIT = struct.Struct("<Id")        # credit-key index, consume ns

DEFAULT_CONNECT_TIMEOUT = 10.0
DEFAULT_READ_TIMEOUT = 30.0
#: staged-write cap: a peer this many bytes behind backpressures us
DEFAULT_MAX_PENDING = 1 << 20


def socket_available() -> bool:
    """True when stream sockets are usable on this host."""
    try:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    except OSError:  # pragma: no cover - no loopback networking
        return False
    sock.close()
    return True


def socket_timeouts() -> Tuple[float, float]:
    """(connect, read) timeouts in seconds, environment-overridable."""
    connect = float(os.environ.get(
        "REPRO_SOCKET_CONNECT_TIMEOUT", "") or DEFAULT_CONNECT_TIMEOUT)
    read = float(os.environ.get(
        "REPRO_SOCKET_READ_TIMEOUT", "") or DEFAULT_READ_TIMEOUT)
    return connect, read


def resolve_family(name: str) -> int:
    if name == "tcp":
        return socket.AF_INET
    if name == "unix":
        if not hasattr(socket, "AF_UNIX"):  # pragma: no cover
            raise SocketSetupError(
                "unix-domain sockets are unavailable on this platform")
        return socket.AF_UNIX
    raise SocketSetupError(
        f"unknown socket family {name!r} (tcp or unix)")


def _tune(sock: socket.socket) -> None:
    if sock.family == socket.AF_INET:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


def make_listeners(owners: Dict[str, int], family_name: str,
                   directory: Optional[str] = None):
    """Bind one rendezvous listener per owner (pre-fork, so every
    child inherits it already listening).

    ``owners`` maps owner name -> expected connection count (the listen
    backlog).  Returns ``(listeners, addresses, tmpdir)`` where
    ``tmpdir`` is the created unix-socket directory to remove at
    cleanup (None for TCP).
    """
    family = resolve_family(family_name)
    tmpdir = None
    if family != socket.AF_INET and directory is None:
        tmpdir = tempfile.mkdtemp(prefix="repro-sock-")
        directory = tmpdir
    listeners: Dict[str, socket.socket] = {}
    addresses: Dict[str, object] = {}
    try:
        for owner, backlog in owners.items():
            sock = socket.socket(family, socket.SOCK_STREAM)
            if family == socket.AF_INET:
                sock.bind(("127.0.0.1", 0))
                addresses[owner] = sock.getsockname()
            else:
                path = os.path.join(directory, f"{owner}.sock")
                sock.bind(path)
                addresses[owner] = path
            sock.listen(max(1, backlog))
            listeners[owner] = sock
    except OSError as exc:
        for sock in listeners.values():
            sock.close()
        raise SocketSetupError(f"cannot bind rendezvous listener: {exc}")
    return listeners, addresses, tmpdir


def rendezvous_plan(sim, family_name: str):
    """Bind the listeners every linked partition pair of ``sim``
    rendezvouses through and return ``(plan, tmpdir)``.

    The later partition of a pair (in ``sim.partitions`` order)
    connects down to the earlier one, so a partition owns a listener
    with one backlog slot per later linked peer.  ``plan`` is the same
    for every worker (see :func:`establish_channels`); ``tmpdir`` is as
    for :func:`make_listeners`.
    """
    order = {name: i for i, name in enumerate(sim.partitions)}
    pairs = {tuple(sorted((link.src[0], link.dst[0]), key=order.get))
             for link in sim.links if link.src[0] != link.dst[0]}
    owners: Dict[str, int] = {}
    for low, _high in pairs:
        owners[low] = owners.get(low, 0) + 1
    listeners, addresses, tmpdir = make_listeners(owners, family_name)
    connect_timeout, read_timeout = socket_timeouts()
    plan = {
        "family": family_name,
        "listeners": listeners,
        "addresses": addresses,
        "connect_timeout": connect_timeout,
        "read_timeout": read_timeout,
    }
    return plan, tmpdir


def connect_with_backoff(family: int, address,
                         timeout: Optional[float] = None
                         ) -> socket.socket:
    """Connect, retrying with bounded exponential backoff until
    ``timeout`` (default ``REPRO_SOCKET_CONNECT_TIMEOUT``) elapses."""
    if timeout is None:
        timeout = socket_timeouts()[0]
    deadline = time.monotonic() + timeout
    delay = 0.001
    last: Optional[OSError] = None
    while True:
        sock = socket.socket(family, socket.SOCK_STREAM)
        try:
            sock.settimeout(max(0.05, min(1.0, timeout)))
            sock.connect(address)
            _tune(sock)
            sock.settimeout(None)
            return sock
        except OSError as exc:
            sock.close()
            last = exc
            if time.monotonic() + delay > deadline:
                raise SocketSetupError(
                    f"cannot connect to {address!r} within "
                    f"{timeout:g}s: {last}")
            time.sleep(delay)
            delay = min(delay * 2, 0.25)


def _send_hello(sock: socket.socket, name: str, timeout: float) -> None:
    payload = name.encode()
    sock.settimeout(timeout)
    try:
        sock.sendall(_LEN.pack(len(payload)) + payload)
    except OSError as exc:
        raise SocketSetupError(f"hello send to peer failed: {exc}")
    finally:
        sock.settimeout(None)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    got = bytearray()
    while len(got) < n:
        chunk = sock.recv(n - len(got))
        if not chunk:
            raise SocketSetupError(
                "peer closed the connection during the hello handshake")
        got += chunk
    return bytes(got)


def _recv_hello(sock: socket.socket, timeout: float) -> str:
    sock.settimeout(timeout)
    try:
        (n,) = _LEN.unpack(_recv_exact(sock, _LEN.size))
        name = _recv_exact(sock, n).decode()
    except socket.timeout:
        raise SocketSetupError(
            f"no hello from an accepted peer within {timeout:g}s")
    except OSError as exc:
        raise SocketSetupError(f"hello receive failed: {exc}")
    finally:
        sock.settimeout(None)
    return name


def establish_channels(name: str, peers_before: List[str],
                       peers_after: List[str], plan: dict
                       ) -> Dict[str, "SocketChannel"]:
    """Worker-side rendezvous: one :class:`SocketChannel` per linked
    peer.  ``plan`` (from :func:`rendezvous_plan`) carries ``family``, the global ``listeners`` map
    (we close every listener we inherited but do not own), per-owner
    ``addresses``, and the two timeouts."""
    family = resolve_family(plan["family"])
    listeners: Dict[str, socket.socket] = plan.get("listeners", {})
    for owner, listener in listeners.items():
        if owner != name:
            try:
                listener.close()
            except OSError:
                pass
    connect_timeout = plan.get("connect_timeout") \
        or socket_timeouts()[0]
    read_timeout = plan.get("read_timeout") or socket_timeouts()[1]
    channels: Dict[str, SocketChannel] = {}
    # phase 1: connect to every lower-order peer's listener.  These
    # complete against the listen backlog without the acceptor
    # scheduling, so no connect can wait on another worker's phase 2.
    for peer in peers_before:
        sock = connect_with_backoff(family, plan["addresses"][peer],
                                    timeout=connect_timeout)
        _send_hello(sock, name, read_timeout)
        channels[peer] = SocketChannel(sock, peer)
    # phase 2: accept one connection per higher-order peer; the hello
    # record names the connector (accept order is arbitrary)
    listener = listeners.get(name)
    if peers_after:
        if listener is None:
            raise SocketSetupError(
                f"worker {name!r} expects {len(peers_after)} "
                "connection(s) but was given no listener")
        expected = set(peers_after)
        listener.settimeout(read_timeout)
        for _ in peers_after:
            try:
                sock, _addr = listener.accept()
            except socket.timeout:
                raise SocketSetupError(
                    f"worker {name!r} still waiting on "
                    f"{sorted(expected)} after {read_timeout:g}s")
            _tune(sock)
            peer = _recv_hello(sock, read_timeout)
            if peer not in expected:
                sock.close()
                raise SocketSetupError(
                    f"unexpected hello from {peer!r} "
                    f"(expected one of {sorted(expected)})")
            expected.discard(peer)
            channels[peer] = SocketChannel(sock, peer)
    if listener is not None:
        try:
            listener.close()
        except OSError:
            pass
    return channels


class SocketChannel:
    """One established peer stream of length-prefixed packed records.

    Non-blocking.  ``fileno`` makes the channel selectable alongside
    control pipes in ``multiprocessing.connection.wait``.  Reads
    buffer partial records until the rest arrives; a clean or torn EOF
    sets ``closed`` (native peer-death detection).  Writes stage into ``_tx`` and drain
    opportunistically; once ``max_pending`` bytes are staged the
    channel refuses new records, which is the backpressure signal the
    conduit's wait-step loop spins on.
    """

    def __init__(self, sock: socket.socket, peer: str = "",
                 max_pending: int = DEFAULT_MAX_PENDING):
        self.sock = sock
        self.peer = peer
        self.max_pending = max_pending
        sock.setblocking(False)
        self._rx = bytearray()
        self._tx = bytearray()
        self.closed = False
        self.records_in = 0
        self.records_out = 0

    def fileno(self) -> int:
        return self.sock.fileno()

    # -- read side -----------------------------------------------------------

    def drain(self) -> List[bytes]:
        """Read every available byte; return the complete records."""
        while not self.closed:
            try:
                chunk = self.sock.recv(1 << 16)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self.closed = True
                break
            if not chunk:
                self.closed = True
                break
            self._rx += chunk
        out: List[bytes] = []
        rx = self._rx
        off, n = 0, len(rx)
        while n - off >= _LEN.size:
            (length,) = _LEN.unpack_from(rx, off)
            if n - off - _LEN.size < length:
                break  # partial record: keep buffering
            start = off + _LEN.size
            out.append(bytes(rx[start:start + length]))
            off = start + length
        if off:
            del rx[:off]
        self.records_in += len(out)
        return out

    # -- write side ----------------------------------------------------------

    def try_write(self, payload: bytes) -> bool:
        """Stage one record unless backpressured; True when accepted.
        A record written to a dead peer is accepted and dropped — the
        caller's dead-peer accounting owns that case."""
        if self.closed:
            return True
        if self._tx:
            self.try_flush()
            if len(self._tx) >= self.max_pending:
                return False
        self._tx += _LEN.pack(len(payload)) + payload
        self.records_out += 1
        self.try_flush()
        return True

    def try_flush(self) -> bool:
        """Push staged bytes out; True when the backlog fully drained
        (or was dropped because the channel already closed).  A peer
        that vanished mid-send raises ``BrokenPipeError``/``OSError``,
        which the worker's dead-peer handling catches."""
        if self.closed:
            return True
        while self._tx:
            try:
                sent = self.sock.send(self._tx)
            except (BlockingIOError, InterruptedError):
                return False
            except OSError:
                self.closed = True
                raise
            if sent <= 0:  # pragma: no cover - defensive
                return False
            del self._tx[:sent]
        return True

    def close(self) -> None:
        self.closed = True
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - teardown race
            pass


class FramePacker:
    """Topology-keyed binary codec for frame batches.

    Built from the simulation's link list (every forked worker holds
    the same one), so both ends agree on the link indices, the per-link
    token byte widths (from the destination channel's
    :class:`~repro.libdn.codec.TokenCodec`), and the table that maps
    credit keys to small integers.
    """

    def __init__(self, link_nbytes: List[int],
                 link_dst: List[Tuple[str, str]],
                 credit_keys: List[Tuple[str, str]]):
        self.link_nbytes = link_nbytes
        self.link_dst = link_dst
        self.credit_keys = credit_keys
        self.credit_index = {k: i for i, k in enumerate(credit_keys)}

    @classmethod
    def from_sim(cls, sim) -> "FramePacker":
        link_nbytes = [sim._in_channel_by_key[link.dst].codec.nbytes
                       for link in sim.links]
        link_dst = [link.dst for link in sim.links]
        credit_keys = sorted({link.dst for link in sim.links})
        return cls(link_nbytes, link_dst, credit_keys)

    def pack_frames(self, frames: List[EffectFrame], ack: int) -> bytes:
        parts = [_REC_HDR.pack(_KIND_FRAMES, ack, len(frames))]
        nbytes = self.link_nbytes
        credit_index = self.credit_index
        for frame in frames:
            parts.append(_FRAME_HDR.pack(
                frame.pass_no, len(frame.deliveries), len(frame.credits)))
            for idx, _dst, word, arrive_ns, rx_ns in frame.deliveries:
                parts.append(_DELIV_HDR.pack(idx, arrive_ns, rx_ns))
                parts.append(word.to_bytes(nbytes[idx], "little"))
            for key, ns in frame.credits:
                parts.append(_CREDIT.pack(credit_index[key], ns))
        return b"".join(parts)

    def pack_ack(self, through_pass: int) -> bytes:
        return _REC_HDR.pack(_KIND_ACK, through_pass, 0)

    def unpack(self, payload: bytes, sender: str
               ) -> Tuple[List[EffectFrame], int]:
        """Decode one record into ``(frames, ack)``; a standalone
        acknowledgement decodes with no frames."""
        kind, ack, n_frames = _REC_HDR.unpack_from(payload, 0)
        if kind == _KIND_ACK:
            return [], ack
        off = _REC_HDR.size
        nbytes = self.link_nbytes
        link_dst = self.link_dst
        credit_keys = self.credit_keys
        frames: List[EffectFrame] = []
        for _ in range(n_frames):
            pass_no, n_deliv, n_credit = _FRAME_HDR.unpack_from(payload, off)
            off += _FRAME_HDR.size
            deliveries = []
            for _ in range(n_deliv):
                idx, arrive_ns, rx_ns = _DELIV_HDR.unpack_from(payload, off)
                off += _DELIV_HDR.size
                n = nbytes[idx]
                word = int.from_bytes(payload[off:off + n], "little")
                off += n
                deliveries.append((idx, link_dst[idx], word,
                                   arrive_ns, rx_ns))
            credits = []
            for _ in range(n_credit):
                key_idx, ns = _CREDIT.unpack_from(payload, off)
                off += _CREDIT.size
                credits.append((credit_keys[key_idx], ns))
            frames.append(EffectFrame(sender=sender, pass_no=pass_no,
                                      deliveries=deliveries,
                                      credits=credits))
        return frames, ack


class SocketConduit:
    """Outgoing half of one worker->peer frame stream.

    ``push`` is called once per pass and buffers the pass's frame; every
    ``flush_interval`` frames (or sooner, when the worker is about to
    block — a blocked worker always flushes first, which keeps the
    wavefront live) :meth:`flush` packs the batch into one record.
    Credit-based flow control bounds run-ahead: a sender may have at
    most ``window`` unacknowledged passes outstanding, and ``ack_source``
    piggybacks the highest peer pass this worker has applied
    (maintained by its inbox), so steady-state traffic needs no
    standalone acknowledgements.

    A write the channel refuses (backpressure) blocks *politely*: the
    caller-supplied ``wait_step`` must keep the worker live (drain
    incoming streams, service the control pipe, surface aborts) and
    returns True when the write should be abandoned instead of retried
    — the peer is dead, or the run is finalizing past the stop fence
    and the remaining frames are empty service frames nobody will read.
    """

    def __init__(self, channel: SocketChannel, peer: str,
                 packer: FramePacker,
                 flush_interval: int = 16,
                 window: Optional[int] = None,
                 wait_step: Optional[Callable[[], bool]] = None):
        if flush_interval < 1:
            raise ValueError("flush_interval must be >= 1")
        self.channel = channel
        self.peer = peer
        self.packer = packer
        self.flush_interval = flush_interval
        self.window = window if window is not None \
            else max(2 * flush_interval, 4)
        self.wait_step = wait_step or (lambda: False)
        self.buffer: List[EffectFrame] = []
        #: highest own pass the peer has acknowledged applying
        self.acked_through = 0
        #: highest own pass pushed (buffered or sent)
        self.pushed_through = 0
        #: hook: returns the ack to piggyback (applied-through for peer)
        self.ack_source = lambda: 0
        #: records actually written (for the batching benchmark)
        self.messages_sent = 0
        #: individual effects (deliveries + credits) those records
        #: carried — per-token messaging would pay one record each
        self.effects_sent = 0

    def window_open(self, pass_no: int) -> bool:
        """May a frame for ``pass_no`` enter flight without waiting?"""
        return pass_no - self.acked_through <= self.window

    def push(self, frame: EffectFrame) -> None:
        """Buffer one pass frame; flushes on a full batch.  The caller
        must have confirmed :meth:`window_open` (blocking and draining
        acknowledgements first if it was not)."""
        self.buffer.append(frame)
        self.pushed_through = frame.pass_no
        self.effects_sent += len(frame.deliveries) + len(frame.credits)
        if len(self.buffer) >= self.flush_interval:
            self.flush()

    def flush(self) -> None:
        if self.buffer:
            batch = self.buffer
            self.buffer = []
            self._write_blocking(
                self.packer.pack_frames(batch, self.ack_source()))
        # a flush with nothing (newly) buffered still pushes staged
        # bytes: blocked workers call flush before waiting, which is
        # what drains the backlog of a previously backpressured write
        self.channel.try_flush()

    def note_ack(self, through_pass: int) -> None:
        if through_pass > self.acked_through:
            self.acked_through = through_pass

    def send_ack(self, through_pass: int) -> None:
        """Write a standalone acknowledgement (no frames attached)."""
        self._write_blocking(self.packer.pack_ack(through_pass))

    def _write_blocking(self, payload: bytes) -> None:
        while not self.channel.try_write(payload):
            if self.wait_step():
                return  # abandoned: receiver no longer consumes
        self.messages_sent += 1
