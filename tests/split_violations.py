"""A split plan's violations as a list: the oracle form of split_index's
one check, for tests that compare the messages one by one."""

from fedvra.data import split_index
from fedvra.errors import SplitInvariantError


def violations(records, plan) -> list[str]:
    """The messages split_index raises for the plan, in order; empty for a
    valid plan. No message holds "; ", the separator split_index joins them with."""
    try:
        split_index(records, plan)
    except SplitInvariantError as exc:
        return str(exc).split("; ")
    return []
