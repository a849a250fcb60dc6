"""The check surface of the service: ``/v1/check`` and audit-on-analyze.

Two gating semantics under test: ``check`` *reports* diagnostics (HTTP 200
whatever it finds — the caller asked to see them), while ``analyze`` with
``audit`` *gates* the artifact (a failing audit is a
:class:`CheckFailedError`, HTTP 500 — the daemon must not serve a result
whose fixpoint does not re-audit).
"""

import pytest

from repro.api.errors import CheckFailedError
from repro.service import ServiceClient, SessionManager, serving
from repro.service.client import ServiceClientError

SOURCE = """
class Greeter {
    int greet() { return 1; }
}
class Main {
    static void main() {
        Greeter greeter = new Greeter();
        greeter.greet();
    }
}
"""

# The Attic class plants one advisory IR002 lint warning.
WARNING_SOURCE = SOURCE + """
class Attic {
    void dusty() { }
}
"""


@pytest.fixture
def manager(tmp_path):
    return SessionManager(max_live_sessions=4, spill_dir=tmp_path / "spill")


def _corrupt_slot(manager, name):
    """Flip a worklist bit in every solved slot's tables — a mid-solve
    state."""
    managed = manager._sessions[name]
    for slot in managed.slots.values():
        slot.state.in_worklist[0] = 1


class TestManagerCheck:
    def test_lint_only_check(self, manager):
        manager.open("s", source=WARNING_SOURCE)
        result = manager.check("s")
        assert result["analysis"] is None
        assert result["counts"]["warning"] >= 1
        assert any(d["id"] == "IR002" for d in result["diagnostics"])

    def test_check_with_analysis_runs_the_audits(self, manager):
        manager.open("s", source=SOURCE)
        result = manager.check("s", analysis="skipflow")
        assert result["analysis"] == "skipflow"
        assert result["counts"]["error"] == 0

    def test_check_reports_corruption_without_raising(self, manager):
        manager.open("s", source=SOURCE)
        manager.analyze("s", "skipflow")
        _corrupt_slot(manager, "s")
        result = manager.check("s", analysis="skipflow")
        assert any(d["id"] == "AUD001" for d in result["diagnostics"])

    def test_metrics_count_checks_and_findings(self, manager):
        manager.open("s", source=WARNING_SOURCE)
        manager.check("s")
        metrics = manager.metrics_snapshot()
        assert metrics["requests"]["checks"] == 1
        assert metrics["requests"]["check_findings"] >= 1


class TestAuditOnAnalyze:
    def test_clean_solve_embeds_the_audit_block(self, manager):
        manager.open("s", source=SOURCE)
        response = manager.analyze("s", "skipflow", audit=True)
        assert response["audit"]["counts"]["error"] == 0

    def test_corrupted_slot_fails_the_gate(self, manager):
        manager.open("s", source=SOURCE)
        manager.analyze("s", "skipflow")
        _corrupt_slot(manager, "s")
        with pytest.raises(CheckFailedError, match="AUD001"):
            manager.analyze("s", "skipflow", audit=True)


class TestOverTheWire:
    def test_check_endpoint_and_audit_gate(self, tmp_path):
        manager = SessionManager(spill_dir=tmp_path / "spill")
        with serving(manager) as server:
            host, port = server.server_address
            client = ServiceClient.for_address(host, port)
            client.open("s", source=WARNING_SOURCE)

            lint = client.check("s")
            assert any(d["id"] == "IR002" for d in lint["diagnostics"])

            audited = client.check("s", analysis="skipflow",
                                   options={"saturation_policy":
                                            "allocated-type",
                                            "saturation_threshold": 8})
            assert audited["counts"]["error"] == 0

            clean = client.analyze("s", "skipflow", audit=True)
            assert clean["audit"]["counts"]["error"] == 0

            _corrupt_slot(manager, "s")
            with pytest.raises(ServiceClientError) as excinfo:
                client.analyze("s", "skipflow", audit=True)
            assert excinfo.value.status == 500
            assert excinfo.value.error_type == "CheckFailedError"

            metrics = client.metrics()
            assert metrics["requests"]["checks"] == 2
            client.close("s")
