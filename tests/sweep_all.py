"""The whole input mutation sweep: every case of
``test_input_sweep.ALL_CASES`` through the checks of
``test_mutated_config_exits_cleanly``.  The default test run does not
collect this file (its name does not start with ``test_``); run it with

    python -m pytest tests/sweep_all.py -q

It ends with one line counting the cases by their (validate, command)
exit-code pair.
"""
import pytest

from conftest import EXIT_PAIRS
from test_input_sweep import ALL_CASES, case_id, check_case


@pytest.mark.parametrize("case", ALL_CASES, ids=map(case_id, ALL_CASES))
def test_case(tmp_path, capfd, case):
    EXIT_PAIRS[check_case(tmp_path, capfd, case)] += 1
