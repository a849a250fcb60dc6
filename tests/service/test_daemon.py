"""End-to-end daemon coverage: real HTTP over a loopback socket.

One threading server per test class scope, driven through the stdlib
:class:`~repro.service.client.ServiceClient` — the same path the CI smoke
and the load study use.  Covers the full open/update/analyze/close loop,
the error-taxonomy-to-HTTP-status mapping, and that daemon responses carry
the identical versioned report payload the CLI's ``--json`` prints.
"""

import json

import pytest

from repro.api.report import SCHEMA_VERSION, AnalysisReport
from repro.service import ServiceClient, ServiceClientError, serving

SOURCE_V1 = """
class Main {
    static void main() {
        Greeter greeter = new Greeter();
        greeter.greet();
    }
}
class Greeter {
    int greet() { return 1; }
}
"""

SOURCE_V2 = SOURCE_V1 + """
class QuietGreeter extends Greeter {
    int greet() { return 0; }
}
class Rollout {
    static void apply() {
        QuietGreeter greeter = new QuietGreeter();
        greeter.greet();
    }
}
"""

SOURCE_EDITED_BODY = SOURCE_V1.replace("return 1", "return 9")

BROKEN_SOURCE = "class Broken extends Missing { }"


@pytest.fixture
def client():
    with serving() as server:
        host, port = server.server_address
        yield ServiceClient.for_address(host, port)


class TestRoundTrip:
    def test_full_session_loop(self, client):
        assert client.health()["status"] == "ok"
        info = client.open("demo", source=SOURCE_V1)
        assert info["live"] and info["origin"] == "source"

        cold = client.analyze("demo", "skipflow")
        assert cold["mode"] == "cold"
        report = cold["report"]
        assert report["schema_version"] == SCHEMA_VERSION
        # The wire payload round-trips through the report serializer: what
        # the daemon serves is exactly what ``repro analyze --json`` emits.
        rebuilt = AnalysisReport.from_dict(report)
        assert rebuilt.to_dict() == report

        update = client.update("demo", source=SOURCE_V2)
        assert update["queued"] == 1
        warm = client.analyze("demo", "skipflow")
        assert warm["mode"] == "warm"
        assert warm["coalesced_updates"] == 1

        sessions = client.sessions()
        assert [entry["session"] for entry in sessions] == ["demo"]
        assert client.close("demo") == {"session": "demo", "closed": True}
        assert client.sessions() == []

    def test_benchmark_sessions_and_eviction_endpoint(self, client):
        client.open("bench", benchmark="wide-flat-64")
        cold = client.analyze("bench", "skipflow")
        assert client.evict("bench")["evicted"]
        client.update("bench", edit={"kind": "add-variant", "index": 0})
        warm = client.analyze("bench", "skipflow")
        assert warm["mode"] == "warm"
        assert 0 < warm["steps_paid"] < cold["steps_paid"]
        metrics = client.metrics()
        assert metrics["requests"]["rehydrations"] == 1
        assert metrics["analyze_modes"]["warm"] == 1

    def test_analyzer_options_travel_the_wire(self, client):
        client.open("demo", source=SOURCE_V1)
        result = client.analyze("demo", "skipflow",
                                options={"saturation_threshold": 4})
        assert result["mode"] == "cold"
        # A distinct options combination is a distinct slot: no false cache.
        assert client.analyze("demo", "skipflow")["mode"] == "cold"
        assert client.analyze(
            "demo", "skipflow",
            options={"saturation_threshold": 4})["mode"] == "cached"


class TestErrorStatuses:
    def test_unknown_session_is_404(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client.analyze("ghost", "skipflow")
        assert excinfo.value.status == 404
        assert excinfo.value.error_type == "SessionNotFoundError"

    def test_unknown_analyzer_is_404(self, client):
        client.open("demo", source=SOURCE_V1)
        with pytest.raises(ServiceClientError) as excinfo:
            client.analyze("demo", "made-up")
        assert excinfo.value.status == 404
        assert excinfo.value.error_type == "UnknownAnalyzerError"

    def test_duplicate_open_is_409(self, client):
        client.open("demo", source=SOURCE_V1)
        with pytest.raises(ServiceClientError) as excinfo:
            client.open("demo", source=SOURCE_V1)
        assert excinfo.value.status == 409
        assert excinfo.value.error_type == "SessionExistsError"

    def test_non_monotone_source_update_is_409_then_rebuilds(self, client):
        client.open("demo", source=SOURCE_V1)
        client.analyze("demo", "skipflow")
        with pytest.raises(ServiceClientError) as excinfo:
            client.update("demo", source=SOURCE_EDITED_BODY)
        assert excinfo.value.status == 409
        assert excinfo.value.error_type == "NonMonotoneDeltaError"
        rebuilt = client.update("demo", source=SOURCE_EDITED_BODY,
                                allow_rebuild=True)
        assert rebuilt["rebuilt"]
        assert client.analyze("demo", "skipflow")["mode"] == "cold"

    def test_compile_failure_is_422(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client.open("demo", source=BROKEN_SOURCE)
        assert excinfo.value.status == 422

    def test_protocol_violations_are_400(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client.open("demo")
        assert excinfo.value.status == 400
        assert excinfo.value.error_type == "ServiceProtocolError"
        client.open("demo", source=SOURCE_V1)
        with pytest.raises(ServiceClientError) as excinfo:
            client.analyze("demo", "skipflow", options={"nope": 1})
        assert excinfo.value.status == 400

    @pytest.mark.parametrize("threshold", ["16", True],
                             ids=["string", "bool"])
    def test_malformed_threshold_is_400(self, client, threshold):
        client.open("demo", source=SOURCE_V1)
        with pytest.raises(ServiceClientError) as excinfo:
            client.analyze("demo", "skipflow",
                           options={"saturation_threshold": threshold})
        assert excinfo.value.status == 400
        assert excinfo.value.error_type == "ValueError"
        assert "must be an int >= 1" in excinfo.value.message
        # The daemon keeps serving the session afterwards.
        assert client.analyze("demo", "skipflow")["mode"] == "cold"

    def test_contradictory_saturation_pair_is_400(self, client):
        client.open("demo", source=SOURCE_V1)
        with pytest.raises(ServiceClientError) as excinfo:
            client.analyze("demo", "skipflow",
                           options={"saturation_threshold": 4,
                                    "saturation_policy": "off"})
        assert excinfo.value.status == 400
        assert excinfo.value.error_type == "ValueError"
        assert "contradicts" in excinfo.value.message
        assert client.analyze("demo", "skipflow")["mode"] == "cold"

    def test_malformed_json_is_400(self, client):
        import urllib.error
        import urllib.request

        request = urllib.request.Request(
            client.base_url + "/v1/open", data=b"{not json",
            method="POST", headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        envelope = json.loads(excinfo.value.read().decode("utf-8"))
        assert envelope["ok"] is False
        assert envelope["error"]["type"] == "ServiceProtocolError"

    def test_unknown_endpoint_is_400(self, client):
        with pytest.raises(ServiceClientError) as excinfo:
            client._request("teleport", {"session": "demo"})
        assert excinfo.value.status == 400
