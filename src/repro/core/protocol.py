"""The end-to-end MedSen session (paper §II / Figure 2).

One :class:`MedSenSession` call performs the full flow:

1. mix the patient's blood with their cyto-coded password pipette;
2. capture the encrypted trace on the device;
3. relay it through the (untrusted) smartphone to the (untrusted)
   cloud analysis server;
4. decrypt the returned peak report inside the controller TCB;
5. classify recovered particles, separate password beads from blood
   cells, authenticate the patient and verify record integrity;
6. apply the threshold diagnostic and store the encrypted outcome in
   the cloud record store under the identifier key.

The session also accounts the paper's reported costs: the ~0.2 s
average end-to-end analysis time (cloud processing + result transfer +
controller decryption — acquisition itself is pipelined) and the data
volumes of §VII-B.
"""

from dataclasses import dataclass
from typing import Dict, Optional

from repro._util.rng import RngLike, ensure_rng
from repro.auth.authenticator import AuthDecision, ServerAuthenticator
from repro.auth.classifier import ParticleClassifier
from repro.auth.enrollment import enroll_classifier
from repro.auth.identifier import CytoIdentifier
from repro.cloud.server import AnalysisServer
from repro.cloud.storage import RecordStore
from repro.core.config import MedSenConfig
from repro.core.device import CaptureResult, MedSenDevice
from repro.core.diagnosis import CD4_STAGING, DiagnosisOutcome, ThresholdDiagnostic
from repro.crypto.decryptor import DecryptionResult
from repro.dsp.features import DEFAULT_FEATURE_FREQUENCIES_HZ, FeatureExtractor
from repro.mobile.phone import RelayOutcome, Smartphone
from repro.obs import DIAGNOSIS_ISSUED, NULL_OBSERVER, adopt_observer
from repro.particles.sample import Sample, mix

#: The biomarker species whose concentration drives the diagnosis: the
#: blood-cell species (the CD4 stand-in).
MARKER_TYPE_NAME = "blood_cell"


@dataclass(frozen=True)
class SessionTiming:
    """Post-acquisition latency breakdown (seconds)."""

    compression_s: float
    transfer_s: float
    cloud_analysis_s: float
    decryption_s: float
    classification_s: float

    @property
    def end_to_end_s(self) -> float:
        """The paper's 'end-to-end time requirement for disease
        diagnostics': everything after the capture is in hand."""
        return (
            self.compression_s
            + self.transfer_s
            + self.cloud_analysis_s
            + self.decryption_s
            + self.classification_s
        )

    @property
    def processing_s(self) -> float:
        """Compute-only share (analysis + decryption + classification)."""
        return self.cloud_analysis_s + self.decryption_s + self.classification_s


@dataclass(frozen=True)
class SessionResult:
    """Everything one diagnostic session produced."""

    capture: CaptureResult
    relay: RelayOutcome
    decryption: DecryptionResult
    auth: AuthDecision
    diagnosis: DiagnosisOutcome
    bead_counts: Dict[str, float]
    marker_count: float
    timing: SessionTiming
    record_key: str

    def notification(self):
        """Patient-facing notification for this outcome (§II: "notifies
        the user accordingly"); rendered on the phone, decoded in the
        TCB."""
        from repro.core.notification import notify

        return notify(self.diagnosis)


class MedSenSession:
    """A deployed MedSen installation: device + phone + cloud + registry.

    Parameters
    ----------
    device:
        The patient's dongle (defaults to a paper-configured one).
    observer:
        Observability sink shared by the whole deployment.  The default
        no-op observer records nothing; a live
        :class:`repro.obs.Observer` collects the session span tree,
        pipeline metrics, and the audit event trail.  Injected
        components that still carry the no-op default adopt it.
    """

    def __init__(
        self,
        device: Optional[MedSenDevice] = None,
        phone: Optional[Smartphone] = None,
        server: Optional[AnalysisServer] = None,
        authenticator: Optional[ServerAuthenticator] = None,
        classifier: Optional[ParticleClassifier] = None,
        store: Optional[RecordStore] = None,
        diagnostic: ThresholdDiagnostic = CD4_STAGING,
        capture_chamber=None,
        rng: RngLike = None,
        observer=NULL_OBSERVER,
    ) -> None:
        rng = ensure_rng(rng)
        self.observer = observer
        self.device = device or MedSenDevice(rng=rng, observer=observer)
        #: Optional Figure 1 antibody pre-concentration stage
        #: (microfluidics.capture.CaptureChamber); when present, blood
        #: is enriched for the marker species before the password beads
        #: are mixed in, and diagnosis maps eluate concentrations back
        #: to blood.
        self.capture_chamber = capture_chamber
        self.config: MedSenConfig = self.device.config
        self.phone = phone or Smartphone(observer=observer)
        self.server = server or AnalysisServer(observer=observer)
        self.authenticator = authenticator or ServerAuthenticator(
            self.config.alphabet, observer=observer
        )
        self.store = store or RecordStore(observer=observer)
        if observer is not NULL_OBSERVER:
            for component in (self.device, self.phone, self.server,
                              self.authenticator, self.store):
                adopt_observer(component, observer)
        self.diagnostic = diagnostic
        self.features = FeatureExtractor(
            carrier_frequencies_hz=self.device.carrier_frequencies_hz,
            feature_frequencies_hz=DEFAULT_FEATURE_FREQUENCIES_HZ,
        )
        if classifier is None:
            reference_types = list(self.config.alphabet.bead_types)
            if not any(t.name == MARKER_TYPE_NAME for t in reference_types):
                from repro.particles.library import get_particle_type

                reference_types.append(get_particle_type(MARKER_TYPE_NAME))
            classifier = enroll_classifier(
                reference_types,
                feature_frequencies_hz=self.features.feature_frequencies_hz,
                circuit=self.config.circuit,
                rng=rng,
            )
        self.classifier = classifier

    # ------------------------------------------------------------------
    def run_diagnostic(
        self,
        blood: Sample,
        identifier: CytoIdentifier,
        duration_s: float = 60.0,
        pipette_volume_ul: float = 2.0,
        rng: RngLike = None,
        auth_source: Optional[str] = None,
    ) -> SessionResult:
        """Execute the full §II flow for one test.

        ``auth_source`` (when given) names the attempt for the
        authenticator's lockout throttle — typically the tenant or
        device id — so repeated failed password submissions from one
        source hit the exponential lockout
        (:mod:`repro.guard.lockout`).
        """
        rng = ensure_rng(rng)
        observer = self.observer
        with observer.span("session", duration_s=duration_s) as session_span:
            with observer.span("prepare_sample"):
                enrichment_factor = 1.0
                if self.capture_chamber is not None:
                    input_volume_ul = blood.volume_ul
                    blood, _waste = self.capture_chamber.process(blood, rng=rng)
                    enrichment_factor = self.capture_chamber.enrichment_factor(
                        input_volume_ul
                    )
                final_volume_ul = blood.volume_ul + pipette_volume_ul
                pipette = identifier.to_sample(
                    pipette_volume_ul, final_volume_ul=final_volume_ul, rng=rng
                )
                mixed = mix(blood, pipette)
                dilution_factor = final_volume_ul / blood.volume_ul

            capture = self.device.run_capture(mixed, duration_s, encrypt=True, rng=rng)
            relay = self.phone.relay(capture.trace, self.server)

            with observer.span("decrypt") as decrypt_span:
                decryption = self.device.decrypt(relay.report)
            decryption_time = decrypt_span.duration_s

            with observer.span("classify") as classify_span:
                bead_counts, marker_count = self._classify(decryption)
            classification_time = classify_span.duration_s

            auth = self.authenticator.authenticate(
                bead_counts, capture.pumped_volume_ul, source=auth_source
            )

            # Concentration in the mixture, corrected for delivery losses,
            # un-diluted back to the (possibly enriched) sample, and mapped
            # through the capture chamber's enrichment back to blood.
            marker_concentration = (
                marker_count
                / capture.pumped_volume_ul
                / self.authenticator.delivery_efficiency
                * dilution_factor
                / enrichment_factor
            )
            with observer.span("diagnose"):
                diagnosis = self.diagnostic.evaluate(marker_concentration)
            observer.event(
                DIAGNOSIS_ISSUED,
                label=diagnosis.label,
                marker=self.diagnostic.marker_name,
                concentration_per_ul=diagnosis.concentration_per_ul,
            )
            observer.incr("session.diagnostics")

            record_key = auth.recovered.as_string()
            with observer.span("store"):
                self.store.store(
                    record_key,
                    relay.report,
                    metadata={"diagnostic": self.diagnostic.marker_name},
                )
            session_span.set_attribute("diagnosis", diagnosis.label)
            session_span.set_attribute("authenticated", auth.accepted)

        timing = SessionTiming(
            compression_s=relay.compression_time_s,
            transfer_s=relay.transfer_time_s,
            cloud_analysis_s=relay.analysis_time_s,
            decryption_s=decryption_time,
            classification_s=classification_time,
        )
        observer.observe("stage.decryption_s", timing.decryption_s)
        observer.observe("stage.classification_s", timing.classification_s)
        observer.observe("stage.end_to_end_s", timing.end_to_end_s)
        return SessionResult(
            capture=capture,
            relay=relay,
            decryption=decryption,
            auth=auth,
            diagnosis=diagnosis,
            bead_counts=bead_counts,
            marker_count=marker_count,
            timing=timing,
            record_key=record_key,
        )

    # ------------------------------------------------------------------
    def _classify(self, decryption: DecryptionResult) -> "tuple[Dict[str, float], float]":
        """Split recovered particles into bead counts and marker count.

        Classification runs on the *clean* subset (full-template
        recoveries) and is scaled to the decrypted total count, since
        clean particles are an unbiased sample of all particles.
        """
        clean = decryption.clean_particles
        total = decryption.total_count
        if not clean or total == 0:
            return {bead.name: 0.0 for bead in self.config.alphabet.bead_types}, 0.0
        import numpy as np

        channel_indices = list(self.features.channel_indices)
        matrix = np.vstack([p.amplitudes[channel_indices] for p in clean])
        report = self.classifier.classify(matrix)
        scale = total / len(clean)
        counts = self.authenticator.counts_from_classification(report, scale=scale)
        marker = counts.pop(MARKER_TYPE_NAME, 0.0)
        bead_counts = {
            bead.name: counts.get(bead.name, 0.0)
            for bead in self.config.alphabet.bead_types
        }
        return bead_counts, marker
