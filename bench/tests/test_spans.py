import asyncio
import types

import pytest

import spans
from spans import ROOT, Recorder, SpanArrays


def test_self_time_subtracts_nested_and_sibling_children():
    rows = [
        ("a:root", 0.0, 10.0, ROOT),
        ("b:first", 1.0, 4.0, 0),      # sibling 1
        ("c:inner", 2.0, 3.0, 1),      # nested under sibling 1
        ("b:second", 5.0, 9.0, 0),     # sibling 2
    ]
    own = spans.self_times(SpanArrays.from_rows(rows))
    assert own.tolist() == pytest.approx([3.0, 2.0, 1.0, 4.0])
    summary = spans.summarize(SpanArrays.from_rows(rows))
    assert summary["b:first"] == {"calls": 1, "total_s": 3.0, "self_s": 2.0}
    layers = spans.layer_self_seconds(summary)
    assert layers == pytest.approx({"a": 3.0, "b": 6.0, "c": 1.0})
    # Every second of the root is in exactly one layer.
    assert sum(layers.values()) == pytest.approx(10.0)


def test_overlapping_children_are_counted_once_and_clipped():
    rows = [
        ("a:root", 0.0, 10.0, ROOT),
        ("b:x", 1.0, 6.0, 0),
        ("b:y", 4.0, 8.0, 0),      # overlaps x: union is [1, 8]
        ("b:z", 9.0, 12.0, 0),     # runs past the parent: clipped to [9, 10]
    ]
    covered = spans.covered_by_children(SpanArrays.from_rows(rows))
    assert covered[0] == pytest.approx(8.0)


def test_window_cuts_parents_outside_it():
    rows = [("a:r", 0.0, 5.0, ROOT), ("a:c", 1.0, 2.0, 0), ("a:r", 6.0, 9.0, ROOT),
            ("a:c", 7.0, 8.0, 2)]
    window = SpanArrays.from_rows(rows).window(1, 4)
    assert window.parents.tolist() == [ROOT, ROOT, 1]
    assert spans.self_times(window).tolist() == pytest.approx([1.0, 2.0, 1.0])


def test_wrap_records_parents_and_uninstall_restores():
    module = types.ModuleType("fake")

    class Thing:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    original = Thing.__dict__["outer"]
    recorder = Recorder()
    recorder.wrap(Thing, "outer", "x:outer")
    recorder.wrap(Thing, "inner", "y:inner")
    assert Thing().outer() == 2
    arrays = recorder.arrays()
    assert [arrays.names[i] for i in arrays.name_ids] == ["x:outer", "y:inner"]
    assert arrays.parents.tolist() == [ROOT, 0]
    assert (arrays.ends >= arrays.starts).all()
    recorder.uninstall()
    assert Thing.__dict__["outer"] is original
    assert Thing().outer() == 2 and len(recorder) == 2
    del module


def test_span_closes_when_the_call_raises():
    class Thing:
        def boom(self):
            raise KeyError("x")

    recorder = Recorder()
    recorder.wrap(Thing, "boom", "x:boom")
    with pytest.raises(KeyError):
        Thing().boom()
    assert recorder.stack == [] and recorder.ends[0] >= recorder.starts[0]


def test_generator_resumptions_are_spans_but_consumer_time_is_not():
    holder = types.SimpleNamespace()

    def numbers():
        yield 1
        yield 2

    holder.__dict__["numbers"] = numbers
    recorder = Recorder()
    holder_type = type("Holder", (), {"numbers": staticmethod(numbers)})
    wrapped = recorder.traced_generator(numbers, "g:numbers")
    assert list(wrapped()) == [1, 2]
    # Two items and the final StopIteration: three resumptions.
    assert len(recorder) == 3 and recorder.stack == []
    del holder_type


def test_work_on_another_task_adopts_the_coroutine_span():
    class Server:
        def __init__(self):
            self.queue = None

        async def submit(self, key):
            future = asyncio.get_running_loop().create_future()
            await self.queue.put((key, future))
            return await future

        def work(self, key):
            return key * 2

        async def worker(self):
            while True:
                key, future = await self.queue.get()
                future.set_result(self.work(key))

    recorder = Recorder()
    in_flight = {}
    recorder.wrap_async(
        Server, "submit", lambda s, key: "s:submit",
        lambda index, s, key: in_flight.__setitem__(key, index),
    )
    recorder.wrap(Server, "work", "s:work", lambda s, key: in_flight.pop(key))

    async def main():
        server = Server()
        server.queue = asyncio.Queue()
        task = asyncio.create_task(server.worker())
        results = await asyncio.gather(server.submit(1), server.submit(2))
        task.cancel()
        return results

    assert asyncio.run(main()) == [2, 4]
    arrays = recorder.arrays()
    names = [arrays.names[i] for i in arrays.name_ids]
    for index, name in enumerate(names):
        if name == "s:work":
            assert names[arrays.parents[index]] == "s:submit"
    own = spans.self_times(arrays)
    assert (own >= 0).all()
