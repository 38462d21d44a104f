import pytest

import loadgen


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class EchoTransport:
    """Replies to every request ``service_s`` after it was sent; one
    poll can be made to stall, as a descheduled generator would."""

    def __init__(self, clock, service_s=0.001, stall_at=None, stall_s=0.0):
        self.clock = clock
        self.service_s = service_s
        self.stall_at, self.stall_s = stall_at, stall_s
        self.pending = []          # (ready_at, conn, line)
        self.sent_at = []

    def send(self, conn, payload):
        for line in payload.split(b"\n")[:-1]:
            self.sent_at.append(self.clock.now)
            self.pending.append((self.clock.now + self.service_s, conn, line))

    def poll(self, timeout):
        if self.stall_at is not None and self.clock.now >= self.stall_at:
            self.clock.now += self.stall_s
            self.stall_at = None
        else:
            self.clock.now += 0.0001
        ready = [p for p in self.pending if p[0] <= self.clock.now]
        self.pending = [p for p in self.pending if p[0] > self.clock.now]
        return [(conn, b"re:" + line) for _, conn, line in ready]


def _script(count):
    return [b"req%d\n" % i for i in range(count)]


def test_closed_loop_keeps_one_request_in_flight_per_connection():
    clock = FakeClock()
    transport = EchoTransport(clock, service_s=0.001)
    result = loadgen.closed_loop(transport, [_script(5), _script(3)], clock)
    assert [len(r) for r in result.replies] == [5, 3]
    assert result.replies[1] == [b"re:req0", b"re:req1", b"re:req2"]
    assert result.dropped == 0
    # Each request waits for the previous reply: 5 services end to end.
    assert result.wall_s >= 5 * 0.001
    assert all(lat >= 0.001 for conn in result.latencies for lat in conn)


def test_open_loop_sends_on_schedule_and_times_from_the_due_instant():
    clock = FakeClock()
    transport = EchoTransport(clock, service_s=0.001)
    dues = [[0.010 * i for i in range(10)]]
    result = loadgen.open_loop(transport, [_script(10)], dues, clock)
    assert len(result.replies[0]) == 10 and result.dropped == 0
    # Sent no earlier than due, and at most one poll step late.
    for due, sent in zip(dues[0], transport.sent_at):
        assert 0.0 <= sent - due <= 0.0002
    assert result.late_share == 0.0
    assert max(result.latencies[0]) < 0.002


def test_a_stall_is_charged_to_the_requests_it_delayed():
    clock = FakeClock()
    # The generator stalls for 50 ms just before request 3 is due.
    transport = EchoTransport(clock, service_s=0.001, stall_at=0.029, stall_s=0.050)
    dues = [[0.010 * i for i in range(10)]]
    result = loadgen.open_loop(transport, [_script(10)], dues, clock)
    assert result.dropped == 0
    latencies = result.latencies[0]
    # Requests due at 30..70 ms went out when the stall ended (~79 ms):
    # their latency counts the wait from the *due* instant, not the send.
    assert latencies[3] == pytest.approx(0.050, abs=0.002)
    assert latencies[7] == pytest.approx(0.010, abs=0.002)
    assert latencies[2] < 0.002 and latencies[9] < 0.002
    # ... and the generator's own lateness is reported beside it.
    assert sorted(result.lateness)[-1] == pytest.approx(0.049, abs=0.002)
    assert result.late_share == pytest.approx(5 / 10)


def test_a_closed_connection_counts_its_requests_as_dropped():
    class Closing(EchoTransport):
        def poll(self, timeout):
            replies = super().poll(timeout)
            if len(self.sent_at) >= 2:
                self.pending = []
                return replies + [(0, None)]
            return replies

    clock = FakeClock()
    result = loadgen.closed_loop(Closing(clock), [_script(5)], clock)
    assert result.dropped == 5 - len(result.replies[0])
    assert result.dropped >= 3
