"""Applying a key schedule to the sensor: the encryption step.

Encryption costs nothing at run time (paper §IV: "the presented
encryption scheme do[es] not infer any noticeable encryption computation
overhead or delay since it is based only on hardware configuration") —
it is literally the sensor configuration.  This module translates an
epoch key into that configuration:

* ``E`` — for every particle arrival, a dip event is emitted at each
  sensing gap of each *active* electrode (lead: one gap, others: two);
* ``G`` — the per-electrode gain scales the dip amplitudes of that
  electrode's events;
* ``S`` — the flow controller is commanded to the epoch's flow level at
  each epoch boundary, which changes arrival velocities and therefore
  dip widths.

The flow must be planned *before* transport is simulated (the fluid
physically moves at the keyed speed), so the pipeline is:
``plan_flow`` -> transport schedules arrivals -> ``events_for_arrivals``.

The output is one columnar :class:`~repro.physics.peaks.PulseTrain`
built in one walk over the arrivals: each epoch's :func:`key_layout` is
built once; each particle's measured drop is computed once and times
each gap's gain (exactly the per-electrode product); centres
``t + gap / v`` are one array operation; a stable argsort on the centre
keeps a stable list sort's tie order.
"""

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

from repro._util.errors import ConfigurationError
from repro.crypto.gains import GainTable
from repro.crypto.key import EpochKey, KeySchedule
from repro.hardware.electrodes import ElectrodeArray
from repro.microfluidics.channel import MicrofluidicChannel
from repro.microfluidics.flow import FlowController, FlowSpeedTable
from repro.microfluidics.transport import ParticleArrival
from repro.obs import NULL_OBSERVER
from repro.physics.electrical import ElectrodePairCircuit
from repro.physics.peaks import GapLayout, PulseTrain, gap_layout


@dataclass(frozen=True)
class EncryptionPlan:
    """A key schedule bound to the hardware it will drive."""

    schedule: KeySchedule
    array: ElectrodeArray
    gain_table: GainTable
    flow_table: FlowSpeedTable

    def __post_init__(self) -> None:
        if self.schedule.n_electrodes != self.array.n_outputs:
            raise ConfigurationError(
                f"schedule covers {self.schedule.n_electrodes} electrodes, "
                f"array has {self.array.n_outputs}"
            )
        max_gain_level = max(max(e.gain_levels) for e in self.schedule.epochs)
        if max_gain_level >= self.gain_table.n_levels:
            raise ConfigurationError(
                f"schedule uses gain level {max_gain_level}, table has "
                f"{self.gain_table.n_levels} levels"
            )
        max_flow_level = max(e.flow_level for e in self.schedule.epochs)
        if max_flow_level >= self.flow_table.n_levels:
            raise ConfigurationError(
                f"schedule uses flow level {max_flow_level}, table has "
                f"{self.flow_table.n_levels} levels"
            )

    def multiplication_factor_at(self, time_s: float) -> int:
        """m(E) of the epoch active at ``time_s``."""
        return self.array.multiplication_factor(self.schedule.key_at(time_s).active_electrodes)


def key_layout(key: EpochKey, array: ElectrodeArray, gain_table: GainTable) -> GapLayout:
    """Where a particle keyed by ``key`` dips: every gap of each active
    electrode (ascending), at that electrode's keyed gain."""
    return gap_layout(array, (
        (e, gain_table.gain_for_level(key.gain_level_for(e)))
        for e in sorted(key.active_electrodes)
    ))


@dataclass(frozen=True)
class SignalEncryptor:
    """Turns keyed arrivals into ciphertext pulse events.

    Parameters
    ----------
    carrier_frequencies_hz:
        The lock-in's carrier set; dip amplitudes are computed per
        carrier through the circuit's transduction model.
    circuit:
        Electrode-pair circuit used for the transduction efficiency.
    """

    carrier_frequencies_hz: Tuple[float, ...]
    circuit: ElectrodePairCircuit = field(default_factory=ElectrodePairCircuit)
    channel: MicrofluidicChannel = field(default_factory=MicrofluidicChannel)

    def __post_init__(self) -> None:
        carriers = tuple(float(f) for f in self.carrier_frequencies_hz)
        if not carriers:
            raise ConfigurationError("carrier_frequencies_hz must be non-empty")
        object.__setattr__(self, "carrier_frequencies_hz", carriers)

    # ------------------------------------------------------------------
    def plan_flow(self, plan: EncryptionPlan, flow: FlowController) -> None:
        """Command the epoch flow levels onto the flow controller."""
        for index, epoch in enumerate(plan.schedule.epochs):
            start_s, _ = plan.schedule.epoch_bounds(index)
            rate = plan.flow_table.rate_for_level(epoch.flow_level)
            flow.set_rate(start_s, rate)

    # ------------------------------------------------------------------
    def events_for_arrivals(
        self,
        arrivals: Sequence[ParticleArrival],
        plan: EncryptionPlan,
        observer=NULL_OBSERVER,
    ) -> PulseTrain:
        """Ciphertext pulse train for keyed particle arrivals.

        The key applied to a particle is the one active at its arrival
        time; epoch durations are much longer than array transit times,
        so boundary straddling is negligible (the same approximation the
        paper makes by renewing keys "every time unit").  Each epoch's
        gap layout (active electrodes ascending, their gaps, their
        gains) is built once and shared by the particles it keys.
        """
        with observer.span("encrypt", arrivals=len(arrivals)) as span:
            by_epoch: Dict[int, GapLayout] = {}
            layouts = []
            for arrival in arrivals:
                index = plan.schedule.epoch_index_at(arrival.time_s)
                if index not in by_epoch:
                    by_epoch[index] = key_layout(
                        plan.schedule.epochs[index], plan.array, plan.gain_table
                    )
                layouts.append(by_epoch[index])
            events = PulseTrain.from_arrivals(
                arrivals, layouts, plan.array, self.carrier_frequencies_hz, self.circuit
            )
            span.set_attribute("pulse_events", len(events))
        observer.incr("encrypt.arrivals", len(arrivals))
        observer.incr("encrypt.pulse_events", len(events))
        return events

    def plaintext_events(
        self,
        arrivals: Sequence[ParticleArrival],
        array: ElectrodeArray,
    ) -> PulseTrain:
        """Unencrypted acquisition: lead electrode only, unit gain.

        §V uses this mode to let the server read a cyto-coded identifier
        directly ("the bio-sensor level encryption turned off such that
        the server-side can recognize the actual number and types of the
        submitted beads").
        """
        lead = gap_layout(array, [(array.lead_electrode, 1.0)])
        return PulseTrain.from_arrivals(
            arrivals, [lead] * len(arrivals), array, self.carrier_frequencies_hz, self.circuit
        )
