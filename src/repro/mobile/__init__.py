"""The smartphone side: relay app and performance model.

The phone is explicitly *outside* the trusted computing base (paper
§II/§VI-D): it provides the user interface, shares its connectivity,
compresses and relays encrypted captures to the cloud, and relays
analysis outcomes back — all over ciphertext.

* :mod:`~repro.mobile.phone` — the relay app (compression, upload,
  result forwarding) and a local-analysis mode for small captures.
* :mod:`~repro.mobile.perf` — processing-time models of the paper's
  two platforms (Intel i7 computer vs Nexus 5), calibrated on the
  Figure 14 measurements.
"""

from repro.mobile.perf import COMPUTER_I7, DevicePerfModel, NEXUS5
from repro.mobile.phone import RelayOutcome, Smartphone

__all__ = [
    "COMPUTER_I7",
    "DevicePerfModel",
    "NEXUS5",
    "RelayOutcome",
    "Smartphone",
]
