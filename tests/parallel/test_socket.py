"""The process backend's socket data plane: the frame codec, conduit
flow control, channel framing, rendezvous, backpressure, backend
selection, and bit-identity with the in-process loop.

The carrier must be invisible.  These tests pin the invariants that
rests on — exact float/word round trips through the packed codec,
length-prefixed records surviving arbitrary fragmentation, torn
streams detected as peer death rather than corrupt frames, the
pre-bound listener rendezvous connecting every linked pair exactly
once, and ``max_pending`` backpressure feeding the conduit's wait-step
loop instead of deadlocking it.
"""

from __future__ import annotations

import os
import socket
import struct
import threading
import time

import pytest

from repro.errors import (
    SimulationError,
    SocketSetupError,
    UnknownBackendError,
)
from repro.libdn import ChannelSpec, codec_for
from repro.parallel import (
    EffectFrame,
    FramePacker,
    ProcessBackend,
    SocketChannel,
    SocketConduit,
    connect_with_backoff,
    establish_channels,
    fork_available,
    make_listeners,
    normalize_backend,
    socket_available,
)
from repro.parallel.socket_transport import socket_timeouts

from .conftest import build_star_sim

_LEN = struct.Struct("<I")


def _record(payload: bytes) -> bytes:
    return _LEN.pack(len(payload)) + payload


@pytest.fixture
def pair():
    a, b = socket.socketpair()
    yield a, b
    a.close()
    b.close()


def _packer():
    spec_a = ChannelSpec.make("in", [("x", 8), ("y", 16)])
    spec_b = ChannelSpec.make("in", [("v", 48)])

    class _Link:
        def __init__(self, dst):
            self.dst = dst

    class _Sim:
        links = [_Link(("P1", "in")), _Link(("P2", "in"))]
        _in_channel_by_key = {
            ("P1", "in"): type("C", (), {"codec": codec_for(spec_a)})(),
            ("P2", "in"): type("C", (), {"codec": codec_for(spec_b)})(),
        }

    return FramePacker.from_sim(_Sim())


class TestFramePacker:
    def test_frames_round_trip(self):
        packer = _packer()
        frames = [
            EffectFrame("P0", 7,
                        deliveries=[(0, ("P1", "in"), 0xABCDEF, 12.5,
                                     3.25),
                                    (1, ("P2", "in"),
                                     (1 << 48) - 1, 0.1, 0.0)],
                        credits=[(("P1", "in"), 99.75)]),
            EffectFrame("P0", 8),  # empty service frame
        ]
        out, ack = packer.unpack(packer.pack_frames(frames, ack=41), "P0")
        assert ack == 41
        assert len(out) == 2
        assert out[0].sender == "P0" and out[0].pass_no == 7
        assert out[0].deliveries == frames[0].deliveries
        assert out[0].credits == frames[0].credits
        assert out[1].empty and out[1].pass_no == 8

    def test_floats_round_trip_exactly(self):
        packer = _packer()
        ns = 1234.000000000000227373675443232059478759765625
        frames = [EffectFrame("P0", 1,
                              deliveries=[(0, ("P1", "in"), 1, ns, ns)],
                              credits=[(("P2", "in"), ns)])]
        out, _ = packer.unpack(packer.pack_frames(frames, 0), "P0")
        _, _, word, arrive, rx = out[0].deliveries[0]
        assert (arrive, rx) == (ns, ns)
        assert out[0].credits[0] == (("P2", "in"), ns)

    def test_ack_record(self):
        packer = _packer()
        assert packer.unpack(packer.pack_ack(17), "P0") == ([], 17)


class _FakeChannel:
    """Stands in for a SocketChannel: keeps accepted records, or
    refuses every write (a backpressured peer) when ``accept`` is
    False."""

    def __init__(self, accept=True):
        self.accept = accept
        self.records = []

    def try_write(self, payload):
        if self.accept:
            self.records.append(payload)
        return self.accept

    def try_flush(self):
        return True


def _frame(k, deliveries=()):
    return EffectFrame("peer", k, list(deliveries))


class TestSocketConduit:
    def _conduit(self, channel=None, **kwargs):
        return SocketConduit(channel or _FakeChannel(), "P1", _packer(),
                             **kwargs)

    def test_batches_until_flush_interval(self):
        conduit = self._conduit(flush_interval=4)
        chan = conduit.channel
        for k in range(1, 4):
            conduit.push(_frame(k))
        assert chan.records == []        # 3 of 4 buffered
        conduit.push(_frame(4))
        assert len(chan.records) == 1    # full batch as ONE record
        frames, _ = conduit.packer.unpack(chan.records[0], "P0")
        assert [f.pass_no for f in frames] == [1, 2, 3, 4]
        assert conduit.messages_sent == 1

    def test_flush_and_window_accounting(self):
        conduit = self._conduit(flush_interval=2)
        chan = conduit.channel
        conduit.ack_source = lambda: 5
        conduit.push(_frame(1, [(0, ("P1", "in"), 7, 1.0, 0.5)]))
        assert chan.records == []        # buffered below the batch size
        conduit.push(_frame(2))
        assert len(chan.records) == 1    # auto-flushed on a full batch
        frames, ack = conduit.packer.unpack(chan.records[0], "P0")
        assert ack == 5
        assert [f.pass_no for f in frames] == [1, 2]
        assert conduit.messages_sent == 1
        assert conduit.effects_sent == 1
        assert conduit.pushed_through == 2
        assert conduit.window_open(2)
        assert not conduit.window_open(conduit.window + 1)
        conduit.note_ack(2)
        assert conduit.acked_through == 2
        assert conduit.window_open(conduit.window + 1)

    def test_explicit_flush_drains_partial_batch(self):
        conduit = self._conduit(flush_interval=16)
        conduit.push(_frame(1))
        conduit.flush()
        assert len(conduit.channel.records) == 1
        conduit.flush()                  # idempotent on empty buffer
        assert len(conduit.channel.records) == 1

    def test_piggybacked_ack_uses_hook(self):
        conduit = self._conduit(flush_interval=1)
        conduit.ack_source = lambda: 42
        conduit.push(_frame(1))
        _, ack = conduit.packer.unpack(conduit.channel.records[0], "P0")
        assert ack == 42

    def test_window_blocks_unacked_runahead(self):
        conduit = self._conduit(flush_interval=2, window=8)
        assert conduit.window_open(8)
        assert not conduit.window_open(9)
        conduit.note_ack(5)
        assert conduit.window_open(13)
        conduit.note_ack(3)              # stale acks never move backwards
        assert conduit.acked_through == 5

    def test_flush_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            self._conduit(flush_interval=0)

    def test_send_ack_round_trips(self):
        conduit = self._conduit()
        conduit.send_ack(9)
        (record,) = conduit.channel.records
        assert conduit.packer.unpack(record, "P1") == ([], 9)

    def test_backpressured_write_abandons_on_wait_step(self):
        steps = []
        conduit = self._conduit(
            _FakeChannel(accept=False), flush_interval=1,
            wait_step=lambda: steps.append(1) or len(steps) >= 3)
        conduit.push(_frame(1, [(1, ("P2", "in"), 0, 0.0, 0.0)]))
        assert len(steps) == 3  # spun until told to abandon
        assert conduit.buffer == []
        assert conduit.messages_sent == 0


class TestSocketChannel:
    def test_roundtrip_multiple_records(self, pair):
        a, b = pair
        tx, rx = SocketChannel(a, "rx"), SocketChannel(b, "tx")
        for payload in (b"alpha", b"", b"x" * 5000):
            assert tx.try_write(payload)
        got = []
        deadline = time.monotonic() + 5.0
        while len(got) < 3 and time.monotonic() < deadline:
            tx.try_flush()
            got += rx.drain()
        assert got == [b"alpha", b"", b"x" * 5000]
        assert rx.records_in == 3
        assert tx.records_out == 3

    def test_partial_reads_reassemble(self, pair):
        """A record delivered one byte at a time still comes out
        whole — the length prefix drives reassembly."""
        a, b = pair
        rx = SocketChannel(b, "tx")
        wire = _record(b"fragmented-token") + _record(b"second")
        got = []
        for i in range(len(wire)):
            a.sendall(wire[i:i + 1])
            got += rx.drain()
        assert got == [b"fragmented-token", b"second"]
        assert not rx.closed

    def test_disconnect_mid_record_sets_closed(self, pair):
        """A peer dying mid-record closes the channel; the torn tail
        is never surfaced as a (corrupt) record."""
        a, b = pair
        rx = SocketChannel(b, "tx")
        torn = _record(b"complete") + _record(b"never-finished")[:7]
        a.sendall(torn)
        a.close()
        got = []
        deadline = time.monotonic() + 5.0
        while not rx.closed and time.monotonic() < deadline:
            got += rx.drain()
        assert got == [b"complete"]
        assert rx.closed

    def test_drain_after_close_returns_nothing(self, pair):
        a, b = pair
        rx = SocketChannel(b, "tx")
        a.close()
        while not rx.closed:
            rx.drain()
        assert rx.drain() == []

    def test_backpressure_refuses_then_recovers(self, pair):
        """With the peer not draining, staged bytes hit max_pending
        and try_write refuses — the signal the conduit's wait-step
        loop spins on.  Draining the peer un-sticks it."""
        a, b = pair
        tx = SocketChannel(a, "rx", max_pending=1 << 12)
        payload = b"y" * 1024
        accepted = 0
        while tx.try_write(payload):
            accepted += 1
            assert accepted < 10_000, "backpressure never engaged"
        rx = SocketChannel(b, "tx")
        drained = []
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            drained += rx.drain()
            try:
                if tx.try_flush():
                    break
            except OSError:
                pytest.fail("peer is alive; flush must not raise")
        assert tx.try_write(payload)
        drained += rx.drain()
        assert set(drained) == {payload}

    def test_write_to_dead_peer_drops_silently(self, pair):
        """Writes to an already-closed channel are accepted and
        dropped — dead-peer accounting belongs to the worker, not the
        carrier."""
        a, b = pair
        tx = SocketChannel(a, "rx")
        b.close()
        deadline = time.monotonic() + 5.0
        while not tx.closed and time.monotonic() < deadline:
            try:
                tx.try_write(b"z" * 4096)
            except OSError:
                break
        tx.closed = True
        assert tx.try_write(b"after-death")


class TestConnectBackoff:
    def test_connect_failure_raises_setup_error(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            unused = probe.getsockname()
        with pytest.raises(SocketSetupError, match="cannot connect"):
            connect_with_backoff(socket.AF_INET, unused, timeout=0.3)

    def test_backoff_rides_out_late_listener(self):
        """The listener appearing after the first attempts still gets
        connected — setup-time reconnection with bounded backoff."""
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            address = probe.getsockname()
        ready = threading.Event()

        def listen_late():
            time.sleep(0.15)
            server = socket.socket()
            server.bind(address)
            server.listen(1)
            ready.set()
            conn, _ = server.accept()
            conn.close()
            server.close()

        t = threading.Thread(target=listen_late, daemon=True)
        t.start()
        sock = connect_with_backoff(socket.AF_INET, address,
                                    timeout=5.0)
        sock.close()
        t.join(5.0)
        assert ready.is_set()


@pytest.mark.skipif(not socket_available(),
                    reason="socket transport unavailable")
class TestRendezvous:
    def test_listeners_only_for_owners(self):
        listeners, addresses, tmpdir = make_listeners(
            {"a": 2, "c": 1}, "tcp")
        try:
            assert set(listeners) == {"a", "c"}
            assert set(addresses) == {"a", "c"}
            assert tmpdir is None
        finally:
            for sock in listeners.values():
                sock.close()

    @pytest.mark.skipif(not fork_available(),
                        reason="rendezvous needs forked workers")
    @pytest.mark.parametrize("family", ["tcp", "unix"])
    def test_three_way_rendezvous(self, family):
        """a<->b, a<->c, b<->c fully connected via forked processes
        standing in for workers (each fork gets its own listener
        copies, as in a real spawn); every pair ends up with exactly
        one channel and records flow both ways."""
        import multiprocessing as mp

        ctx = mp.get_context("fork")
        order = ["a", "b", "c"]
        owners = {"a": 2, "b": 1}
        listeners, addresses, tmpdir = make_listeners(owners, family)
        connect_timeout, read_timeout = socket_timeouts()
        plan = {"family": family, "listeners": listeners,
                "addresses": addresses,
                "connect_timeout": connect_timeout,
                "read_timeout": read_timeout}

        def run(name, conn):
            i = order.index(name)
            chans = establish_channels(name, order[:i],
                                       order[i + 1:], plan)
            for peer, chan in chans.items():
                assert chan.try_write(f"{name}->{peer}".encode())
            got = {}
            deadline = time.monotonic() + read_timeout
            while len(got) < len(chans) \
                    and time.monotonic() < deadline:
                for peer, chan in chans.items():
                    chan.try_flush()
                    for rec in chan.drain():
                        got[peer] = rec.decode()
            conn.send((name, got))
            conn.recv()  # hold channels open until everyone reported
            for chan in chans.values():
                chan.close()

        pipes = {n: ctx.Pipe() for n in order}
        procs = [ctx.Process(target=run, args=(n, pipes[n][1]),
                             daemon=True) for n in order]
        for p in procs:
            p.start()
        for sock in listeners.values():
            sock.close()
        results = {}
        for name in order:
            got_name, got = pipes[name][0].recv()
            results[got_name] = got
        for name in order:
            pipes[name][0].send("done")
        for p in procs:
            p.join(30.0)
            assert p.exitcode == 0
        for name in order:
            peers = [p for p in order if p != name]
            assert sorted(results[name]) == peers
            for peer in peers:
                assert results[name][peer] == f"{peer}->{name}"


class TestBackendSelection:
    def test_unknown_backend_argument_raises(self):
        for name in ("process-sock", "process-shm", "shm"):
            sim = build_star_sim()
            with pytest.raises(UnknownBackendError) as err:
                sim.run(20, backend=name)
            assert "process-socket" in str(err.value)
            assert "valid backends" in str(err.value)

    def test_unknown_env_backend_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "bogus")
        sim = build_star_sim()
        with pytest.raises(UnknownBackendError, match="REPRO_BACKEND"):
            sim.run(20)

    def test_aliases_normalize(self):
        for name in ("socket", "process-socket", "proc", " Process "):
            assert normalize_backend(name) == "process"
        for name in ("shm", "process-shm", None):
            with pytest.raises(UnknownBackendError):
                normalize_backend(name)


@pytest.mark.skipif(not (fork_available() and socket_available()),
                    reason="socket backend needs fork + sockets")
class TestSocketBackend:
    CYCLES = 300

    def test_four_way_detail_bit_identity(self):
        """In-process plus the process backend under each of its
        spellings: every run lands on the same detail."""
        results = {}
        for backend in ("inproc", "process", "process-socket", "proc"):
            sim = build_star_sim(3)
            results[backend] = sim.run(self.CYCLES, backend=backend)
            assert sim.last_run_backend == normalize_backend(backend)
        reference = results["inproc"].detail
        for backend, result in results.items():
            assert result.detail == reference, backend

    def test_unix_family_matches(self):
        reference = build_star_sim().run(self.CYCLES,
                                         backend="inproc")
        backend = ProcessBackend(socket_family="unix")
        result = backend.run(build_star_sim(), self.CYCLES)
        assert result.detail == reference.detail

    def test_env_selects_socket_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "process-socket")
        sim = build_star_sim()
        sim.run(60)
        assert sim.last_run_backend == "process"

    def test_killed_worker_surfaces_and_cleans_up(self):
        import multiprocessing as mp

        from repro.errors import WorkerError

        backend = ProcessBackend(worker_faults={"fpga1": ("kill", 3)})
        with pytest.raises(WorkerError) as err:
            backend.run(build_star_sim(), self.CYCLES)
        assert err.value.partition == "fpga1"
        assert mp.active_children() == []

    def test_stop_callback_rejected(self):
        sim = build_star_sim()
        with pytest.raises(SimulationError, match="stop callback"):
            sim.run(40, backend="process-socket",
                    stop=lambda s: False)
