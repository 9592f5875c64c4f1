"""Tests for the lease abstraction and the Fig. 5 state machine."""

import pytest

from hypothesis import given, settings, strategies as st

from repro.core.lease import Lease, LeaseState, LeaseTransitionError
from repro.droid.resources import ResourceType
from repro.sim.engine import Simulator


def make_lease(descriptor=1):
    return Lease(descriptor=descriptor, uid=10001,
                 rtype=ResourceType.WAKELOCK, record=None, proxy=None,
                 created_at=0.0)


def test_new_lease_is_active_with_unique_descriptor():
    ids = Simulator().ids  # the device's id source, as the manager uses
    a, b = make_lease(next(ids)), make_lease(next(ids))
    assert a.state is LeaseState.ACTIVE
    assert a.descriptor != b.descriptor
    assert a.active
    assert not a.dead


def test_legal_transitions():
    lease = make_lease()
    lease.transition(LeaseState.DEFERRED)
    lease.transition(LeaseState.ACTIVE)
    lease.transition(LeaseState.INACTIVE)
    lease.transition(LeaseState.ACTIVE)
    lease.transition(LeaseState.DEAD)
    assert lease.dead


def test_illegal_transitions_rejected():
    lease = make_lease()
    lease.transition(LeaseState.DEFERRED)
    with pytest.raises(LeaseTransitionError):
        lease.transition(LeaseState.INACTIVE)  # deferred -> inactive
    lease.transition(LeaseState.ACTIVE)
    lease.transition(LeaseState.INACTIVE)
    with pytest.raises(LeaseTransitionError):
        lease.transition(LeaseState.DEFERRED)  # inactive -> deferred


def test_dead_is_terminal():
    lease = make_lease()
    lease.transition(LeaseState.DEAD)
    with pytest.raises(LeaseTransitionError):
        lease.transition(LeaseState.ACTIVE)


def test_any_state_may_die():
    for intermediate in (LeaseState.DEFERRED, LeaseState.INACTIVE):
        lease = make_lease()
        lease.transition(intermediate)
        lease.transition(LeaseState.DEAD)
        assert lease.dead


def test_history_is_bounded():
    lease = Lease(descriptor=1, uid=1, rtype=ResourceType.GPS, record=None,
                  proxy=None, created_at=0.0, history_size=4)
    for index in range(10):
        lease.record_term(index)
    assert list(lease.history) == [6, 7, 8, 9]


_STATE_STRATEGY = st.lists(
    st.sampled_from([LeaseState.ACTIVE, LeaseState.DEFERRED,
                     LeaseState.INACTIVE, LeaseState.DEAD]),
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(sequence=_STATE_STRATEGY)
def test_state_machine_never_leaves_dead_and_rejects_cleanly(sequence):
    """Property: arbitrary transition attempts either succeed per Fig. 5
    or raise, and the lease state always remains a valid enum member;
    once DEAD, everything raises."""
    lease = make_lease()
    for target in sequence:
        was_dead = lease.dead
        try:
            lease.transition(target)
        except LeaseTransitionError:
            assert was_dead or (lease.state, target) not in {
                (LeaseState.ACTIVE, LeaseState.ACTIVE),
                (LeaseState.ACTIVE, LeaseState.DEFERRED),
                (LeaseState.ACTIVE, LeaseState.INACTIVE),
                (LeaseState.DEFERRED, LeaseState.ACTIVE),
                (LeaseState.INACTIVE, LeaseState.ACTIVE),
            }
        if was_dead:
            assert lease.dead
        assert isinstance(lease.state, LeaseState)
