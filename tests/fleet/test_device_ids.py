"""A device-day's ids depend on its spec alone, not on its process."""

from repro.fleet.population import PopulationSpec
from repro.fleet.shard import build_device_phone, simulate_device_day, \
    user_day

#: Device 2019 of this population runs jobs, an audio session, sensor
#: listeners, alarms and leases, and a fault kills one of its apps.
POPULATION = PopulationSpec(seed=2019, devices=3000, minutes=15.0,
                            chaos_rate=0.5)
DEVICE = 2019


def build():
    device = POPULATION.device(DEVICE)
    phone, buggy_uids, interactive_uids, injector = \
        build_device_phone(device, "leaseos")
    phone.sim.spawn(user_day(phone, device,
                             interactive_uids or buggy_uids),
                    name="fleet.user")
    return phone, injector


def ids(phone, injector):
    """Every id the day handed out, as text: app uids, kernel objects
    with their binder tokens, the power rails named after them, lease
    descriptors, live alarm ids and the checker's violation details."""
    manager = phone.lease_manager
    return {
        "uids": sorted(phone.apps),
        "objects": ["{}/{}/{}".format(record.uid, record.name,
                                      record.token.id)
                    for service in phone.kernel_services
                    for record in service.records],
        "rails": ["{}/{}".format(uid, rail)
                  for uid, rail in phone.monitor.ledger.snapshot()],
        "leases": sorted({decision.lease.descriptor
                          for decision in manager.decisions}
                         | set(manager.leases)),
        "alarms": sorted(alarm.id for alarms in phone.alarms._live.values()
                         for alarm in alarms),
        "violations": [v.detail for v in injector.checker.violations],
    }


def test_identical_phones_built_one_after_the_other_hand_out_same_ids():
    first, first_injector = build()
    second, second_injector = build()
    for phone in (first, second):
        phone.run_for(minutes=POPULATION.minutes)
    seen = ids(first, first_injector)
    assert seen == ids(second, second_injector)
    assert seen["uids"][0] == 10000
    names = [entry.split("/")[1]
             for entry in seen["objects"] + seen["rails"]]
    for prefix in ("job:", "audio:", "sensor:"):
        assert any(name.startswith(prefix) for name in names), prefix
    assert seen["leases"] and seen["alarms"]


def test_a_device_day_names_the_same_ids_after_other_device_days():
    phone, injector = build()
    phone.run_for(minutes=POPULATION.minutes)
    alone = ids(phone, injector)
    for index in range(3):
        for mitigation in POPULATION.mitigations:
            simulate_device_day(POPULATION.device(index), mitigation,
                                POPULATION.minutes)
    phone, injector = build()
    phone.run_for(minutes=POPULATION.minutes)
    assert ids(phone, injector) == alone
