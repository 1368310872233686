import pytest

from matsuo.groups import (
    hall_quotient_presentation,
    su32_quotient_presentation,
    todd_coxeter,
)


# The regular enumerations, over the trivial subgroup, run once per session:
# the tests' oracle for the claims, which enumerate over <a, b, c>.
def _enumeration(presentation):
    table = todd_coxeter(presentation)
    assert table.complete
    return table


@pytest.fixture(scope="session")
def su32_table():
    return _enumeration(su32_quotient_presentation())


@pytest.fixture(scope="session")
def su32_group(su32_table):
    return su32_table.group()


@pytest.fixture(scope="session")
def hall_table():
    return _enumeration(hall_quotient_presentation())


@pytest.fixture(scope="session")
def hall_group(hall_table):
    return hall_table.group()
