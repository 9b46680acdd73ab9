"""Session-layer governance: per-statement contexts, SET pragmas, the
retryable error surface (no raw tracebacks leak), transaction abort on
a governed kill, and over-budget tenants shedding via admission
control.

Every test runs twice: on the default engine (compiled kernels) and,
through the ``...Interpreted`` subclasses, with the interpreter pinned
(``SET compile = false``).  A deadline test kills ``trigger``: a fused
filter+projection is one fragment, one cancellation region, so on
kernels the trigger adds an interpreted sort to cross a second
checkpoint.
"""

import pytest

from repro.governance import (
    DeadlineExceeded, GovernanceError, MemoryExceeded, TenantAccountant,
)
from repro.sessions import AdmissionController, SessionManager
from repro.sessions.admission import AdmissionRejected
from repro.sql.database import Database

ROWS = 3000


def _loaded(*pragmas):
    db = Database()
    for pragma in pragmas:
        db.execute(pragma)
    db.execute("CREATE TABLE t (a INT, b INT)")
    for start in range(0, ROWS, 100):
        db.execute("INSERT INTO t VALUES " + ", ".join(
            "({0}, {1})".format(i, i % 7)
            for i in range(start, start + 100)))
    return db


@pytest.fixture
def db():
    return _loaded()


@pytest.fixture
def trigger():
    return "SELECT a FROM t WHERE b = 3 ORDER BY a DESC LIMIT 5"


class Interpreted:
    """Reruns the inherited tests with the interpreter pinned."""

    @pytest.fixture
    def db(self):
        return _loaded("SET compile = false")

    @pytest.fixture
    def trigger(self):
        return "SELECT a FROM t WHERE b = 3"


class TestSessionPragmas:
    def test_set_deadline_kills_then_clear_restores(self, db, trigger):
        manager = SessionManager(db)
        session = manager.session(tenant="t")
        session.execute("SET deadline = 1")
        with pytest.raises(DeadlineExceeded):
            session.execute(trigger)
        session.execute("SET deadline = 0")  # 0 clears the limit
        assert session.query("SELECT COUNT(*) FROM t") == [(ROWS,)]

    def test_set_memory_budget(self, db):
        manager = SessionManager(db)
        session = manager.session(tenant="t")
        session.execute("SET memory_budget = 16")
        with pytest.raises(MemoryExceeded) as info:
            session.execute("SELECT a FROM t WHERE b = 3")
        assert info.value.scope == "query"

    def test_pragmas_are_session_local(self, db):
        manager = SessionManager(db)
        limited = manager.session(tenant="t")
        free = manager.session(tenant="t")
        limited.execute("SET deadline = 1")
        assert free.query("SELECT COUNT(*) FROM t") == [(ROWS,)]

    def test_manager_defaults_seed_new_sessions(self, db, trigger):
        manager = SessionManager(db, default_deadline=1)
        session = manager.session(tenant="t")
        with pytest.raises(DeadlineExceeded):
            session.execute(trigger)

    def test_pragma_validation(self, db):
        session = SessionManager(db).session()
        with pytest.raises(ValueError):
            session.execute("SET deadline = -1")


class TestErrorSurface:
    def test_governed_errors_are_retryable_with_stable_reasons(self, db,
                                                               trigger):
        manager = SessionManager(db)
        session = manager.session(tenant="t")
        session.execute("SET deadline = 1")
        with pytest.raises(GovernanceError) as info:
            session.execute(trigger)
        status = info.value.status()
        assert status["retryable"] is True
        assert status["reason"] == "deadline"
        assert status["site"] in ("interp.instr", "compile.fragment",
                                  "morsel")
        assert session.last_status == status
        assert session.governed == 1 and manager.governed == 1

    def test_no_raw_traceback_leaks_through_session_execute(self, db, trigger):
        """Regression pin: the message a client sees is one clean line
        — no frames, no file paths, no chained engine internals."""
        manager = SessionManager(db)
        session = manager.session(tenant="t")
        session.execute("SET deadline = 1")
        with pytest.raises(GovernanceError) as info:
            session.execute(trigger)
        message = str(info.value)
        assert "\n" not in message
        for leak in ("Traceback", 'File "', ".py", "repro.", "0x"):
            assert leak not in message
        assert info.value.__cause__ is None  # not re-wrapped

    def test_governed_kill_is_stamped_on_the_statement_span(self, db, trigger):
        from repro.observability.tracer import Tracer
        tracer = Tracer()
        manager = SessionManager(db, tracer=tracer)
        session = manager.session(tenant="t")
        session.execute("SET deadline = 1")
        with pytest.raises(GovernanceError):
            session.execute(trigger)
        span = tracer.roots[-1].find("session.statement")
        assert span.attrs["governed"] == "deadline"

    def test_statement_after_kill_succeeds(self, db, trigger):
        manager = SessionManager(db)
        session = manager.session(tenant="t")
        session.execute("SET deadline = 1")
        with pytest.raises(GovernanceError):
            session.execute(trigger)
        session.execute("SET deadline = 0")
        assert session.query("SELECT COUNT(*) FROM t") == [(ROWS,)]


class TestTransactionAbort:
    def test_kill_mid_transaction_aborts_it_cleanly(self, db, trigger):
        manager = SessionManager(db)
        session = manager.session(tenant="t")
        session.execute("BEGIN")
        session.execute("DELETE FROM t WHERE b = 1")
        session.execute("SET deadline = 1")
        with pytest.raises(GovernanceError):
            session.execute(trigger)
        # The kill aborted the transaction: buffered deletes vanished.
        assert not session.in_transaction
        assert session.aborts == 1
        assert db.query("SELECT COUNT(*) FROM t") == [(ROWS,)]

    def test_admission_slot_released_on_governed_abort(self, db, trigger):
        admission = AdmissionController(max_inflight=1)
        manager = SessionManager(db, admission=admission,
                                 default_deadline=1)
        session = manager.session(tenant="t")
        session.execute("BEGIN")
        with pytest.raises(GovernanceError):
            session.execute(trigger)
        assert admission.inflight == 0  # slot returned, not leaked


class TestTenantShedding:
    def test_overbudget_strikes_arm_a_shed_window(self, db):
        accountant = TenantAccountant(budgets={"hog": 16})
        admission = AdmissionController(overbudget_strikes=2,
                                        penalty_window=3)
        manager = SessionManager(db, admission=admission,
                                 accountant=accountant)
        hog = manager.session(tenant="hog")
        for _ in range(2):
            with pytest.raises(MemoryExceeded) as info:
                hog.execute("SELECT a FROM t WHERE b = 3")
            assert info.value.scope == "tenant"
        assert admission.overbudget_reports == 2
        assert admission.penalized == 1
        # The next penalty_window arrivals of the hog are shed...
        for _ in range(3):
            with pytest.raises(AdmissionRejected):
                admission.acquire("hog")
        # ...then admission recovers deterministically.
        admission.acquire("hog")
        admission.release("hog")

    def test_other_tenants_unaffected_by_a_hogs_penalty(self, db):
        accountant = TenantAccountant(budgets={"hog": 16})
        admission = AdmissionController(overbudget_strikes=1,
                                        penalty_window=5)
        manager = SessionManager(db, admission=admission,
                                 accountant=accountant)
        hog = manager.session(tenant="hog")
        with pytest.raises(MemoryExceeded):
            hog.execute("SELECT a FROM t WHERE b = 3")
        admission.acquire("polite")  # no shed for the budget-abiding
        admission.release("polite")

    def test_accountant_balances_return_to_zero(self, db):
        accountant = TenantAccountant()
        manager = SessionManager(db, accountant=accountant)
        session = manager.session(tenant="t")
        session.query("SELECT a FROM t WHERE b = 3")
        session.query("SELECT COUNT(*) FROM t")
        assert accountant.in_use["t"] == 0
        assert accountant.peak["t"] > 0


class TestSessionPragmasInterpreted(Interpreted, TestSessionPragmas):
    pass


class TestErrorSurfaceInterpreted(Interpreted, TestErrorSurface):
    pass


class TestTransactionAbortInterpreted(Interpreted, TestTransactionAbort):
    pass


class TestTenantSheddingInterpreted(Interpreted, TestTenantShedding):
    pass
