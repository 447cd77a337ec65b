import pytest

from lefschetz import polyring, quotient

ACCEPTANCE_RESULTS = []


def record_acceptance(number: int, passed: bool):
    ACCEPTANCE_RESULTS.append((number, passed))


def pytest_terminal_summary(terminalreporter):
    # one line per acceptance criterion, uncaptured so it always shows
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, passed in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(
            f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'}"
        )


@pytest.fixture(autouse=True)
def _fresh_shared_tables():
    # The process-wide column and form tables would let one test's results
    # serve another's lookups, past any wrapper it installs.
    for table in (
        polyring.multiple_columns,
        quotient.fixed_candidate,
        quotient._form_text,
    ):
        table.cache_clear()
