"""Full-scan reference for a replicated primary's shipped journal lines.

The shard ships, with each successful reply, the journal lines of every
record under the session's identifier key whose content hash it has not
seen yet.  This oracle is that rule stated the simple way: re-read and
re-hash the key's *whole* history on every reply.  The shard reads only
the records appended since it last looked; the two must produce the
same lines, in the same order, grouped into the same replies.
"""

from typing import Dict, Optional, Sequence

from repro.cloud.storage import RecordStore, StoredRecord, record_content_hash
from repro.resilience.journal import encode_entry


def snapshot(store: RecordStore) -> Dict[str, Sequence[StoredRecord]]:
    """Every identifier's full record log, frozen at call time."""
    return {key: store.fetch(key) for key in store.identifiers()}


class ShipOracle:
    """Known-hash set seeded from a store, advanced one reply at a time.

    ``hashed`` counts the content hashes the full scan computes while
    answering replies: the per-reply cost that grows with each key's
    history.
    """

    def __init__(self, store: RecordStore) -> None:
        self.hashed = 0
        self.known = {
            record_content_hash(record)
            for records in snapshot(store).values()
            for record in records
        }

    def entry(
        self, records_by_key: Dict[str, Sequence[StoredRecord]], record_key: str
    ) -> Optional[str]:
        """The journal entry a reply for ``record_key`` should carry."""
        if not record_key:
            return None
        lines = []
        for record in records_by_key.get(record_key, ()):
            content_hash = record_content_hash(record)
            self.hashed += 1
            if content_hash in self.known:
                continue
            self.known.add(content_hash)
            lines.append(encode_entry(record))
        return "\n".join(lines) if lines else None
