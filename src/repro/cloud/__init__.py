"""The untrusted cloud side: analysis service, storage, network.

The threat model (paper §II) makes the cloud *curious but honest*: it
runs the requested peak analysis faithfully, but it records everything
it sees — so the attack suite (:mod:`repro.attacks`) can be pointed at
exactly the information a compromised or nosy server would hold.
"""

from repro.cloud.api import (
    AnalysisRequest,
    AnalysisResponse,
    StoreRequest,
    report_from_dict,
    report_to_dict,
)
from repro.cloud.network import NetworkModel, TransferEstimate
from repro.cloud.server import AnalysisServer
from repro.cloud.storage import (
    RecordCorrupted,
    RecordNotFound,
    RecordStore,
    StoredRecord,
)

__all__ = [
    "AnalysisRequest",
    "AnalysisResponse",
    "StoreRequest",
    "report_from_dict",
    "report_to_dict",
    "NetworkModel",
    "TransferEstimate",
    "AnalysisServer",
    "RecordCorrupted",
    "RecordNotFound",
    "RecordStore",
    "StoredRecord",
]
