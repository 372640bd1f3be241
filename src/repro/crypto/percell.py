"""The ideal per-cell cipher of Eq. 1 — implemented for the ablation.

§IV-A: "every signal peak is encrypted with its own randomly generated
key ... Such an encryption algorithm would ensure a perfectly secret
encryption."  And why it was not deployed: "applying a different set of
parameters per cell measurement is challenging as it increases the key
size, and would require MedSen to be aware of every cell entering and
leaving the channel.  Moreover ... two or more cells may appear among
the electrodes simultaneously; this complicates the signal encryption
and decryption procedures."

This module implements the scheme faithfully enough to measure those
exact failure modes: one key per successive particle (``E_p`` and
``G_p``; the flow component ``S_p`` stays at its nominal level because
fluid momentum cannot change per particle — the physical constraint the
paper alludes to), and a sequential decryptor that must assume peak
groups arrive in key order.  When particles overlap inside the array,
key-to-particle alignment slips and both counts and recovered
amplitudes degrade — which is why the deployed scheme is per-epoch.
"""

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro._util.errors import ConfigurationError
from repro.crypto.decryptor import DecryptedParticle, DecryptionResult
from repro.crypto.encryptor import key_layout
from repro.crypto.gains import GainTable
from repro.crypto.key import EpochKey, eq2_bits_per_unit
from repro.crypto.keygen import EntropySource, KeyGenerator
from repro.dsp.peakdetect import DetectedPeak, PeakReport
from repro.hardware.electrodes import ElectrodeArray
from repro.microfluidics.channel import MicrofluidicChannel
from repro.microfluidics.flow import NOMINAL_FLOW_RATE_UL_MIN, FlowSpeedTable
from repro.microfluidics.transport import ParticleArrival
from repro.physics.electrical import ElectrodePairCircuit
from repro.physics.peaks import PulseTrain


@dataclass(frozen=True)
class PerCellPlan:
    """One key per expected particle, bound to the hardware."""

    keys: Tuple[EpochKey, ...]
    array: ElectrodeArray
    gain_table: GainTable
    flow_table: FlowSpeedTable

    def __post_init__(self) -> None:
        if not self.keys:
            raise ConfigurationError("per-cell plan needs at least one key")
        for key in self.keys:
            if key.n_electrodes != self.array.n_outputs:
                raise ConfigurationError(
                    "per-cell key electrode count does not match the array"
                )

    @property
    def n_keys(self) -> int:
        """Number of particle keys provisioned."""
        return len(self.keys)

    def length_bits(self) -> int:
        """Eq. 2 accounting of this key material."""
        return self.n_keys * eq2_bits_per_unit(
            self.array.n_outputs,
            self.gain_table.resolution_bits,
            self.flow_table.resolution_bits,
        )


def generate_percell_plan(
    n_cells: int,
    array: ElectrodeArray,
    entropy: EntropySource,
    gain_table: GainTable = None,
    flow_table: FlowSpeedTable = None,
    avoid_consecutive: bool = True,
) -> PerCellPlan:
    """Draw ``n_cells`` independent keys (Eq. 1's key stream)."""
    if n_cells < 1:
        raise ConfigurationError(f"n_cells must be >= 1, got {n_cells}")
    gain_table = gain_table or GainTable()
    flow_table = flow_table or FlowSpeedTable()
    generator = KeyGenerator(
        n_electrodes=array.n_outputs,
        gain_table=gain_table,
        flow_table=flow_table,
        avoid_consecutive=avoid_consecutive,
        max_active=(array.n_outputs + 1) // 2 if avoid_consecutive else None,
        position_order=array.position_order if avoid_consecutive else None,
    )
    keys = tuple(generator.draw_epoch_key(entropy) for _ in range(n_cells))
    return PerCellPlan(
        keys=keys, array=array, gain_table=gain_table, flow_table=flow_table
    )


@dataclass(frozen=True)
class PerCellEncryptor:
    """Applies the i-th key to the i-th arriving particle."""

    carrier_frequencies_hz: Tuple[float, ...]
    circuit: ElectrodePairCircuit = ElectrodePairCircuit()

    def events_for_arrivals(
        self, arrivals: Sequence[ParticleArrival], plan: PerCellPlan
    ) -> PulseTrain:
        """Keyed pulse train; raises if more particles than keys.

        This *is* the deployability problem the paper names: the sensor
        must know how many cells will pass, and in what order.
        """
        if len(arrivals) > plan.n_keys:
            raise ConfigurationError(
                f"{len(arrivals)} particles but only {plan.n_keys} per-cell keys"
            )
        arrivals = sorted(arrivals, key=lambda a: a.time_s)
        return PulseTrain.from_arrivals(
            arrivals,
            [key_layout(key, plan.array, plan.gain_table) for key in plan.keys[: len(arrivals)]],
            plan.array,
            self.carrier_frequencies_hz,
            self.circuit,
        )


@dataclass(frozen=True)
class PerCellDecryptor:
    """Sequential inverse: group peaks in key order.

    The decryptor walks peaks in time and assumes the i-th anchored
    group used key i.  With well-separated particles this is exact;
    overlapping particles shift the alignment and corrupt everything
    downstream — the measurable cost of Eq. 1 in practice.
    """

    plan: PerCellPlan
    channel: MicrofluidicChannel = MicrofluidicChannel()
    tolerance_fraction: float = 0.45

    def decrypt(self, report: PeakReport) -> DecryptionResult:
        """Sequentially match peak groups to the per-cell key stream."""
        velocity = self.channel.velocity_for_flow_rate(NOMINAL_FLOW_RATE_UL_MIN)
        tolerance_s = self.tolerance_fraction * self.plan.array.transit_time_s(velocity)
        peaks = sorted(report.peaks, key=lambda p: p.time_s)
        unassigned = set(range(len(peaks)))
        particles: List[DecryptedParticle] = []
        anomalies = 0
        key_index = 0

        while unassigned and key_index < self.plan.n_keys:
            key = self.plan.keys[key_index]
            template = self._template(key, velocity)
            anchor_index = min(unassigned, key=lambda i: peaks[i].time_s)
            anchor = peaks[anchor_index]
            matched: List[Tuple[DetectedPeak, int]] = []
            used: List[int] = []
            for offset_s, electrode in template:
                expected = anchor.time_s + offset_s
                best, best_error = None, tolerance_s
                for i in unassigned:
                    if i in used:
                        continue
                    error = abs(peaks[i].time_s - expected)
                    if error <= best_error:
                        best, best_error = i, error
                if best is not None:
                    used.append(best)
                    matched.append((peaks[best], electrode))
            if not matched:
                unassigned.discard(anchor_index)
                anomalies += 1
                continue
            unassigned.difference_update(used)
            clean = len(matched) == len(template)
            if not clean:
                anomalies += 1
            particles.append(
                self._recover(matched, key, key_index, clean)
            )
            key_index += 1

        # Leftover peaks with exhausted keys: undecryptable residue.
        anomalies += 1 if unassigned else 0
        return DecryptionResult(
            particles=tuple(particles),
            epoch_counts=(len(particles),),
            observed_peak_count=report.count,
            merge_credits=0,
            anomalous_groups=anomalies,
        )

    # ------------------------------------------------------------------
    def _template(self, key: EpochKey, velocity: float) -> List[Tuple[float, int]]:
        entries = []
        for electrode in sorted(key.active_electrodes):
            for gap_m in self.plan.array.gap_positions_m(electrode):
                entries.append((gap_m / velocity, electrode))
        entries.sort(key=lambda item: item[0])
        first = entries[0][0]
        return [(offset - first, electrode) for offset, electrode in entries]

    def _recover(
        self,
        matched: List[Tuple[DetectedPeak, int]],
        key: EpochKey,
        key_index: int,
        clean: bool,
    ) -> DecryptedParticle:
        amplitudes = []
        widths = []
        for peak, electrode in matched:
            gain = self.plan.gain_table.gain_for_level(key.gain_level_for(electrode))
            amplitudes.append(peak.amplitudes / gain)
            widths.append(peak.width_s)
        return DecryptedParticle(
            time_s=matched[0][0].time_s,
            amplitudes=np.median(np.vstack(amplitudes), axis=0),
            width_s=float(np.median(widths)),
            n_peaks_matched=len(matched),
            epoch_index=key_index,
            clean=clean,
        )
