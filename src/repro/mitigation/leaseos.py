"""LeaseOS as an installable mitigation: manager + one proxy per service."""

from repro.core.manager import LeaseManager
from repro.core.proxy import (
    AudioLeaseProxy,
    ListenerLeaseProxy,
    LocationLeaseProxy,
    WakelockLeaseProxy,
    WifiLeaseProxy,
)
from repro.mitigation.base import Mitigation


class LeaseOS(Mitigation):
    """Installs the lease manager and the per-service lease proxies."""

    name = "leaseos"

    def __init__(self, policy=None):
        self.policy = policy
        self.manager = None
        self.proxies = {}

    def install(self, phone):
        self.phone = phone
        self.manager = LeaseManager(phone, self.policy)
        phone.lease_manager = self.manager
        self.proxies = {
            "power": WakelockLeaseProxy(self.manager, phone.power),
            "location": LocationLeaseProxy(self.manager, phone.location),
            "sensors": ListenerLeaseProxy(self.manager, phone.sensors),
            "wifi": WifiLeaseProxy(self.manager, phone.wifi),
            "audio": AudioLeaseProxy(self.manager, phone.audio),
            "bluetooth": ListenerLeaseProxy(self.manager,
                                            phone.bluetooth),
        }
