"""Android-style Battery Saver: a threshold-triggered blanket mode.

Another real runtime mechanism in the paper's design space: when the
battery falls below a threshold, the saver restricts background work
(wakelocks, location, jobs, background network) and dims the screen
until charge recovers (or, here, until disabled). Like Doze it is
utility-blind -- it punishes the K-9s and the RunKeepers alike -- which
is why it complements rather than replaces the lease mechanism.
"""

from repro.mitigation.base import BackgroundRestriction


class BatterySaver(BackgroundRestriction):
    """Activates below a battery threshold; restricts background work."""

    name = "battery-saver"
    governed = ("location",)

    CHECK_INTERVAL_S = 30.0

    def __init__(self, threshold_level=0.15, dim_screen=True):
        super().__init__()
        self.threshold_level = threshold_level
        self.dim_screen = dim_screen
        self.active = False
        self.activations = 0
        self._last_remaining_mj = None

    def install(self, phone):
        super().install(phone)
        self.sim.every(self.CHECK_INTERVAL_S, self._check)

    def _restricting(self):
        return self.active

    # -- state ---------------------------------------------------------------

    def _check(self):
        # The battery only moves at settle points; an unchanged charge
        # re-evaluates to the exact decision the previous check made.
        remaining = self.phone.battery.remaining_mj
        if remaining == self._last_remaining_mj:
            return
        self._last_remaining_mj = remaining
        should_be_active = self.phone.battery.level <= self.threshold_level
        if should_be_active and not self.active:
            self._activate()
        elif not should_be_active and self.active:
            self._deactivate()

    def _activate(self):
        self.active = True
        self.activations += 1
        self._revoke_background()
        if self.dim_screen:
            self.phone.display.set_dimmed(True)
        self.phone.broadcasts.publish("battery-low",
                                      {"level": self.phone.battery.level})

    def _deactivate(self):
        self.active = False
        self._restore_all()
        if self.dim_screen:
            self.phone.display.set_dimmed(False)
        self.phone.jobs.flush_pending()
