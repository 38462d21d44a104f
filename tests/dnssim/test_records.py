import pytest

from repro.dnssim import (
    DnsInfrastructure,
    DnsResponse,
    Question,
    Rcode,
    RecordType,
    ResourceRecord,
    name_under_zone,
    normalize_name,
)


def test_normalize_lowercases_and_strips_dot():
    assert normalize_name("WWW.Example.COM.") == "www.example.com"


def test_normalize_rejects_empty():
    with pytest.raises(ValueError):
        normalize_name("")
    with pytest.raises(ValueError):
        normalize_name(".")


def test_normalize_rejects_empty_labels():
    with pytest.raises(ValueError):
        normalize_name("a..b")


def test_normalize_memo_is_bounded_and_never_caches_a_raise():
    for _ in range(2):  # the second round would hit a cached failure
        for bad in ("", ".", "a..b"):
            with pytest.raises(ValueError):
                normalize_name(bad)
            with pytest.raises(ValueError):
                Question(bad)
            with pytest.raises(ValueError):
                ResourceRecord(bad, RecordType.A, "10.0.0.1", ttl=20.0)
            with pytest.raises(ValueError):
                name_under_zone(bad, "example.com")
            with pytest.raises(ValueError):
                DnsInfrastructure().authoritative_for(bad)
    bound = normalize_name.cache_info().maxsize
    for i in range(bound + 50):
        assert normalize_name(f"Busting-{i}.Example.com.") == f"busting-{i}.example.com"
    assert normalize_name.cache_info().currsize == bound


def test_name_under_zone_exact_match():
    assert name_under_zone("example.com", "example.com")


def test_name_under_zone_subdomain():
    assert name_under_zone("www.example.com", "example.com")


def test_name_under_zone_respects_label_boundaries():
    assert not name_under_zone("badexample.com", "example.com")


def test_name_under_zone_not_reversed():
    assert not name_under_zone("example.com", "www.example.com")


def test_record_normalizes_name():
    record = ResourceRecord("WWW.X.test", RecordType.A, "1.2.3.4", 60.0)
    assert record.name == "www.x.test"


def test_record_rejects_negative_ttl():
    with pytest.raises(ValueError):
        ResourceRecord("a.test", RecordType.A, "1.2.3.4", -1.0)


def test_record_rejects_empty_value():
    with pytest.raises(ValueError):
        ResourceRecord("a.test", RecordType.A, "", 60.0)


def test_record_with_ttl_copies():
    record = ResourceRecord("a.test", RecordType.A, "1.2.3.4", 60.0)
    aged = record.with_ttl(10.0)
    assert aged.ttl == 10.0
    assert aged.value == record.value
    assert record.ttl == 60.0


def test_question_normalizes():
    assert Question("A.Test.").name == "a.test"


def test_response_error_flag():
    q = Question("a.test")
    ok = DnsResponse(q, records=(), rcode=Rcode.NOERROR)
    bad = DnsResponse(q, records=(), rcode=Rcode.NXDOMAIN)
    assert not ok.is_error
    assert bad.is_error


def test_response_answers_of_filters_by_type():
    q = Question("a.test")
    a = ResourceRecord("a.test", RecordType.A, "1.1.1.1", 20.0)
    cname = ResourceRecord("a.test", RecordType.CNAME, "b.test", 20.0)
    response = DnsResponse(q, records=(a, cname))
    assert response.answers_of(RecordType.A) == (a,)
    assert response.answers_of(RecordType.CNAME) == (cname,)
