"""Unit tests for the frame/credit message layer."""

from repro.parallel import EffectFrame, FrameInbox


def _frame(k, deliveries=(), credits=()):
    return EffectFrame("peer", k, list(deliveries), list(credits))


class TestEffectFrame:
    def test_empty_detection(self):
        assert _frame(1).empty
        assert not _frame(1, deliveries=[(0, ("a", "in"), {}, 0.0, 0.0)]).empty
        assert not _frame(1, credits=[(("a", "in"), 5.0)]).empty


class TestFrameInbox:
    def test_offer_take_tracks_applied_watermark(self):
        inbox = FrameInbox("peer")
        inbox.offer([_frame(1), _frame(2)])
        assert inbox.has(1) and inbox.has(2) and not inbox.has(3)
        assert inbox.take(1).pass_no == 1
        assert inbox.applied_through == 1
        inbox.take(2)
        assert inbox.applied_through == 2
        assert not inbox.has(1)

    def test_standalone_ack_owed_when_reverse_idle(self):
        inbox = FrameInbox("peer", ack_every=3)
        inbox.offer([_frame(k) for k in range(1, 4)])
        inbox.take(1)
        inbox.take(2)
        assert inbox.standalone_ack_due() is None
        inbox.take(3)
        assert inbox.standalone_ack_due() == 3
        inbox.note_ack_sent(3)
        assert inbox.standalone_ack_due() is None
