"""The paper's Figure 4 missed-update scenario, reproduced exactly.

Source sequence 1 -> 1.2 -> 1.4 -> 1.5 -> 1.7 -> 2.0 with c_p = 0.3 at
repository P and c_q = 0.5 at its dependent Q:

- under Eq. (3) alone, P receives 1.4 (its own tolerance violated) but
  does not forward it to Q (|1.4 - 1.0| = 0.4 <= 0.5); the next source
  value 1.5 violates Q's tolerance but *not* P's, so neither P nor Q ever
  sees it -- Q is now incoherent with no message in flight;
- the Eq. (7) guard forwards the 1.4 (slack 0.1 < c_p = 0.3), after
  which Q's copy tracks within 0.5 for the whole run.
"""

from repro.core.dissemination import make_policy

SOURCE_VALUES = [1.0, 1.2, 1.4, 1.5, 1.7, 2.0]
C_P = 0.3
C_Q = 0.5


def drive(policy_name):
    """Drive the source sequence through S -> P -> Q; return receive logs."""
    policy = make_policy(policy_name)
    policy.register_edge("S", "P", 0, C_P, SOURCE_VALUES[0])
    policy.register_edge("P", "Q", 0, C_Q, SOURCE_VALUES[0])
    p_log, q_log = [], []
    for value in SOURCE_VALUES[1:]:
        if policy.decide("S", "P", 0, value, 0.0, None).forward:
            p_log.append(value)
            if policy.decide("P", "Q", 0, value, C_P, None).forward:
                q_log.append(value)
    return p_log, q_log


def test_eq3_only_reproduces_figure4_miss():
    p_log, q_log = drive("eq3_only")
    # P sees the values the paper shows at P: 1.4, 1.7, 2.0.
    assert p_log == [1.4, 1.7, 2.0]
    # Q misses 1.4 and therefore is stuck at 1.0 until 1.7 arrives --
    # exactly the paper's "this change has not been sent to Q".
    assert 1.4 not in q_log
    assert q_log[0] == 1.7
    # While the source sat at 1.5, Q held 1.0: |1.5 - 1.0| = 0.5 is the
    # boundary; at 1.7 the violation |1.7 - 1.0| = 0.7 > c_q had already
    # happened before the 1.7 push.


def test_distributed_guard_forwards_the_crucial_update():
    p_log, q_log = drive("distributed")
    assert p_log == [1.4, 1.7, 2.0]
    # Eq. (7): slack at Q after 1.4 is 0.5 - 0.4 = 0.1 < c_p = 0.3.
    assert q_log[0] == 1.4
    # With 1.4 at Q, every later source value stays within c_q until the
    # next forward, so Q never silently violates its tolerance.


def test_distributed_q_always_coherent_at_decision_points():
    _, q_log = drive("distributed")
    held = SOURCE_VALUES[0]
    log = list(q_log)
    for value in SOURCE_VALUES[1:]:
        if log and log[0] == value:
            held = log.pop(0)
        assert abs(value - held) <= C_Q + 1e-12


def _max_deviation_at_q(policy_name):
    _, q_log = drive(policy_name)
    held = SOURCE_VALUES[0]
    log = list(q_log)
    worst = 0.0
    for value in SOURCE_VALUES[1:]:
        if log and log[0] == value:
            held = log.pop(0)
        worst = max(worst, abs(value - held))
    return worst


def test_eq3_only_drives_q_to_the_tolerance_boundary():
    # While the source sits at 1.5, Q still holds 1.0: the deviation is
    # exactly c_q -- one more cent and Q is incoherent with no message in
    # flight.  The guard keeps Q far inside the band instead.
    assert _max_deviation_at_q("eq3_only") >= C_Q - 1e-12
    assert _max_deviation_at_q("distributed") <= 0.31
