import copy

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lobkit.book import BookError, BookState, CrossedBook, EmptySideError, UnknownOrderId
from lobkit.messages import Level3Message, MessageKind, Side


def msg(seq, kind, order_id, side, price, size=0.0, exec_size=0.0, ts=None):
    return Level3Message(
        seq=seq,
        ts=ts if ts is not None else seq * 1000,
        kind=kind,
        order_id=order_id,
        side=side,
        price=price,
        size=size,
        exec_size=exec_size,
    )


def test_single_insertion_sets_best_bid():
    book = BookState()
    book.apply(msg(1, MessageKind.ADD, "o1", Side.BID, 100, size=5))
    assert book.best_bid() == 100
    assert book.best_ask() is None


def test_full_fill_empties_level():
    book = BookState()
    book.apply(msg(1, MessageKind.ADD, "o1", Side.BID, 100, size=5))
    effect = book.apply(msg(2, MessageKind.EXECUTE, "o1", Side.BID, 100, exec_size=5))
    assert book.best_bid() is None
    assert not book.contains("o1")
    assert len(effect.fills) == 1 and effect.fills[0].exhausted


def test_fifo_cascade_execution():
    # hand trace: level 100 holds (o1,5),(o2,3); executing 6 fills o1 and leaves o2 with 2
    book = BookState()
    book.apply(msg(1, MessageKind.ADD, "o1", Side.BID, 100, size=5))
    book.apply(msg(2, MessageKind.ADD, "o2", Side.BID, 100, size=3))
    effect = book.apply(msg(3, MessageKind.EXECUTE, "o1", Side.BID, 100, exec_size=6))
    assert [(f.order_id, f.size, f.exhausted) for f in effect.fills] == [("o1", 5, True), ("o2", 1, False)]
    _, _, remaining = book.order_info("o2")
    assert remaining == 2


def test_oversized_execute_reports_unconsumed():
    book = BookState()
    book.apply(msg(1, MessageKind.ADD, "o1", Side.BID, 100, size=5))
    effect = book.apply(msg(2, MessageKind.EXECUTE, "o1", Side.BID, 100, exec_size=9))
    assert effect.unconsumed == pytest.approx(4.0)
    assert book.best_bid() is None


def test_float_residue_not_counted_as_unconsumed():
    book = BookState()
    book.apply(msg(1, MessageKind.ADD, "o1", Side.BID, 100, size=0.1 + 0.2))
    book.apply(msg(2, MessageKind.ADD, "o2", Side.BID, 100, size=0.7))
    effect = book.apply(msg(3, MessageKind.EXECUTE, "o1", Side.BID, 100, exec_size=1.0))
    assert effect.unconsumed == 0.0


def test_unknown_order_rejected():
    book = BookState()
    with pytest.raises(UnknownOrderId):
        book.apply(msg(1, MessageKind.CANCEL, "ghost", Side.BID, 100))


def test_gapped_message_applies_and_last_seq_records_it():
    book = BookState()
    book.apply(msg(1, MessageKind.ADD, "o1", Side.BID, 100, size=5))
    book.apply(msg(5, MessageKind.ADD, "o2", Side.BID, 99, size=5))
    assert book.contains("o2")
    assert book.last_seq == 5


def test_crossed_add_rejected_without_mutation():
    book = BookState()
    book.apply(msg(1, MessageKind.ADD, "b", Side.BID, 100, size=5))
    book.apply(msg(2, MessageKind.ADD, "a", Side.ASK, 103, size=5))
    with pytest.raises(CrossedBook):
        book.apply(msg(3, MessageKind.ADD, "x", Side.BID, 103, size=1))
    assert not book.contains("x")
    assert book.spread_ticks() == 3


def test_priority_volume_better_levels_and_queue():
    book = BookState()
    book.apply(msg(1, MessageKind.ADD, "b1", Side.BID, 100, size=5))
    book.apply(msg(2, MessageKind.ADD, "b2", Side.BID, 99, size=7))
    book.apply(msg(3, MessageKind.ADD, "b3", Side.BID, 98, size=2))
    book.apply(msg(4, MessageKind.ADD, "b4", Side.BID, 98, size=4))
    # behind levels of 5 and 7: summation oracle gives 12
    assert book.priority_volume("b3") == 12
    # same price, behind b3
    assert book.priority_volume("b4") == 14
    assert book.priority_volume("b1") == 0


def test_prices_run_best_first():
    book = BookState()
    for seq, (side, price) in enumerate([(Side.BID, 98), (Side.ASK, 103), (Side.BID, 100), (Side.ASK, 101)], 1):
        book.apply(msg(seq, MessageKind.ADD, f"o{seq}", side, price, size=1))
    book.apply(msg(5, MessageKind.ADD, "o5", Side.BID, 99, size=1))
    book.apply(msg(6, MessageKind.CANCEL, "o3", Side.BID, 100))
    assert list(book.prices(Side.BID)) == [99, 98]
    assert list(book.prices(Side.ASK)) == [101, 103]


def _random_stream(seed: int, n: int = 300) -> list[Level3Message]:
    rng = np.random.default_rng(seed)
    book = BookState()
    msgs = []
    seq = 0
    live: list[str] = []
    oid = 0
    for _ in range(n):
        seq += 1
        bb, ba = book.best_bid(), book.best_ask()
        action = rng.random()
        if action < 0.55 or not live:
            side = Side.BID if rng.random() < 0.5 else Side.ASK
            if side is Side.BID:
                hi = (ba - 1) if ba is not None else 100
                price = int(hi - rng.integers(0, 5))
            else:
                lo = (bb + 1) if bb is not None else 101
                price = int(lo + rng.integers(0, 5))
            if price <= 0:
                price = 1
            oid += 1
            m = msg(seq, MessageKind.ADD, f"o{oid}", side, price, size=float(rng.integers(1, 9)))
            live.append(f"o{oid}")
        elif action < 0.8:
            victim = live[int(rng.integers(len(live)))]
            side, price, _ = book.order_info(victim)
            m = msg(seq, MessageKind.CANCEL, victim, side, price)
            live.remove(victim)
        else:
            victim = live[int(rng.integers(len(live)))]
            side, price, remaining = book.order_info(victim)
            take = remaining if remaining <= 0.5 else float(rng.uniform(0.5, remaining))
            m = msg(seq, MessageKind.EXECUTE, victim, side, price, exec_size=take)
        effect = book.apply(m)
        if m.kind is MessageKind.EXECUTE:
            for f in effect.fills:
                if f.exhausted and f.order_id in live:
                    live.remove(f.order_id)
        msgs.append(m)
    return msgs


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_replay_prefix_determinism(seed):
    msgs = _random_stream(seed)
    book_full = BookState()
    for m in msgs:
        book_full.apply(m)
    cut = len(msgs) // 2
    book_a = BookState()
    for m in msgs[:cut]:
        book_a.apply(m)
    book_b = BookState()
    for m in copy.deepcopy(msgs[:cut]):
        book_b.apply(m)
    assert {p: [list(e) for e in q] for p, q in book_a.bids.items()} == {
        p: [list(e) for e in q] for p, q in book_b.bids.items()
    }
    assert {p: [list(e) for e in q] for p, q in book_a.asks.items()} == {
        p: [list(e) for e in q] for p, q in book_b.asks.items()
    }


@pytest.mark.parametrize("seed", [3, 4])
def test_size_conservation_and_consistency(seed):
    msgs = _random_stream(seed)
    book = BookState()
    added: dict[str, float] = {}
    executed: dict[str, float] = {}
    cancelled: dict[str, float] = {}
    for m in msgs:
        effect = book.apply(m)
        if effect.kind is MessageKind.ADD:
            added[effect.order_id] = effect.added_size
        elif effect.kind is MessageKind.CANCEL:
            cancelled[effect.order_id] = effect.cancelled_size
        else:
            for f in effect.fills:
                executed[f.order_id] = executed.get(f.order_id, 0.0) + f.size
        bb, ba = book.best_bid(), book.best_ask()
        if bb is not None and ba is not None:
            assert ba - bb >= 1
            assert book.best_queue_size(Side.BID) > 0
            assert book.best_queue_size(Side.ASK) > 0
    for oid, total in added.items():
        remaining = book.order_info(oid)[2] if book.contains(oid) else 0.0
        assert total == pytest.approx(executed.get(oid, 0.0) + cancelled.get(oid, 0.0) + remaining)


# ---------------------------------------------------------------------------
# The book against a plain list of resting orders
# ---------------------------------------------------------------------------


class ListBook:
    """Reference book: resting orders as ``[order_id, side, price, remaining]``
    in arrival order, which is also each level's FIFO order."""

    def __init__(self):
        self.orders: list[list] = []
        self.last_seq: int | None = None

    def live(self, order_id):
        return next((o for o in self.orders if o[0] == order_id), None)

    def prices(self, side):
        """Occupied prices, best first."""
        return sorted({o[2] for o in self.orders if o[1] is side}, reverse=side is Side.BID)

    def better(self, side, a, b):
        return a > b if side is Side.BID else a < b

    def level_size(self, side, price):
        return sum(o[3] for o in self.orders if o[1] is side and o[2] == price)

    def ahead(self, order):
        """(order_id, remaining) of the entries ahead of an order at its level."""
        _, side, price, _ = order
        return [(o[0], o[3]) for o in self.orders[: self.orders.index(order)] if o[1] is side and o[2] == price]

    def priority_volume(self, order):
        _, side, price, _ = order
        ahead = self.orders[: self.orders.index(order)]
        return sum(o[3] for o in self.orders if o[1] is side and self.better(side, o[2], price)) + sum(
            o[3] for o in ahead if o[1] is side and o[2] == price
        )

    def apply(self, m):
        """(rejection type or None, fills as tuples, unconsumed size)."""
        fills, unconsumed = [], 0.0
        if m.kind is MessageKind.ADD:
            if self.live(m.order_id) is not None:
                return BookError, [], 0.0
            opposite = self.prices(m.side.opposite)
            if opposite and not self.better(m.side, opposite[0], m.price):
                return CrossedBook, [], 0.0
            self.orders.append([m.order_id, m.side, m.price, m.size])
        else:
            order = self.live(m.order_id)
            if order is None:
                return UnknownOrderId, [], 0.0
            if m.kind is MessageKind.CANCEL:
                self.orders.remove(order)
            else:
                _, side, price, _ = order
                remaining = m.exec_size
                for head in [o for o in self.orders if o[1] is side and o[2] == price]:
                    if remaining <= 0:
                        break
                    take = min(head[3], remaining)
                    head[3] -= take
                    remaining -= take
                    fills.append((head[0], take, price, side, head[3] == 0))
                    if head[3] == 0:
                        self.orders.remove(head)
                unconsumed = remaining
        self.last_seq = m.seq
        return None, fills, unconsumed


QUARTERS = st.integers(1, 16).map(lambda q: q * 0.25)  # every sum of these is exact
ORDER_IDS = st.integers(0, 9).map(lambda k: f"o{k}")  # a small pool: duplicates and unknown ids
# three prices for both sides and long lists, so queues several orders deep form and
# cancels behind a queue's head are common (about 160 in the 300 derandomized examples)
BOOK_OPS = st.lists(
    st.tuples(
        st.one_of(
            st.tuples(st.just(MessageKind.ADD), ORDER_IDS, st.sampled_from(Side), st.integers(99, 101), QUARTERS),
            st.tuples(st.just(MessageKind.CANCEL), ORDER_IDS),
            st.tuples(st.just(MessageKind.EXECUTE), ORDER_IDS, st.integers(1, 48).map(lambda q: q * 0.25)),
        ),
        st.booleans(),  # skip a sequence number
    ),
    min_size=20,
    max_size=120,
)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(ops=BOOK_OPS)
# cancels behind the head of a queue, spelled out: the middle and the tail of a three-deep
# bid level, the tail of a two-deep ask level, then a sweep of what is left
@example(
    ops=[
        (op, False)
        for op in (
            (MessageKind.ADD, "o1", Side.BID, 100, 1.0),
            (MessageKind.ADD, "o2", Side.BID, 100, 2.0),
            (MessageKind.ADD, "o3", Side.BID, 100, 3.0),
            (MessageKind.ADD, "o4", Side.ASK, 102, 1.5),
            (MessageKind.ADD, "o5", Side.ASK, 102, 2.5),
            (MessageKind.CANCEL, "o2"),
            (MessageKind.CANCEL, "o5"),
            (MessageKind.ADD, "o6", Side.BID, 100, 0.5),
            (MessageKind.CANCEL, "o6"),
            (MessageKind.EXECUTE, "o1", 2.0),
        )
    ]
)
def test_book_matches_list_reference(ops):
    book, ref = BookState(), ListBook()
    for (kind, order_id, *rest), skip in ops:
        seq = (ref.last_seq or 0) + (2 if skip else 1)
        if kind is MessageKind.ADD:
            side, price, size = rest
            m = msg(seq, kind, order_id, side, price, size=size)
        else:
            known = ref.live(order_id)
            side, price = (known[1], known[2]) if known else (Side.BID, 100)
            m = msg(seq, kind, order_id, side, price, exec_size=rest[0] if rest else 0.0)
        rejection, fills, unconsumed = ref.apply(m)
        if rejection is not None:
            with pytest.raises(BookError) as info:
                book.apply(m)
            assert type(info.value) is rejection
        else:
            effect = book.apply(m)
            assert [(f.order_id, f.size, f.price, f.side, f.exhausted) for f in effect.fills] == fills
            assert effect.unconsumed == unconsumed
        assert book.last_seq == ref.last_seq
        assert (book.best_bid(), book.best_ask()) == tuple(
            (ref.prices(s) or [None])[0] for s in (Side.BID, Side.ASK)
        )
        for side in Side:
            prices = ref.prices(side)
            assert sorted(book.bids if side is Side.BID else book.asks, reverse=side is Side.BID) == prices
            sizes = [sum(entry[1] for entry in book.queue_at(side, p)) for p in prices]
            assert sizes == [ref.level_size(side, p) for p in prices]
            assert [book.level_rank(side, p) for p in prices] == list(range(1, len(prices) + 1))
            if prices:
                assert book.best_queue_size(side) == ref.level_size(side, prices[0])
            else:
                with pytest.raises(EmptySideError):
                    book.best_queue_size(side)
        for order in ref.orders:
            assert book.order_info(order[0]) == (order[1], order[2], order[3])
            assert book.ahead_in_queue(order[0]) == ref.ahead(order)
            assert book.priority_volume(order[0]) == ref.priority_volume(order)
