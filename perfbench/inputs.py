"""Seeded inputs: the same ``--seed`` always yields the same inputs.

Write workloads (``publish``, ``durable``) send the paper's Fig. 2 load
shape — random two-thread signatures (:func:`repro.loadgen.signatures.
random_signature`).  Each user sends at most :data:`ADDS_PER_USER`
signatures whose top-frame sets are pairwise disjoint, so the server's
same-user adjacency check (§III-C2) accepts all of them.  Distinct blobs
are minted cheaply from per-user templates by rewriting the line number
of one bottom frame, which changes the content hash but no top frame.

The ``join`` corpus comes from :class:`repro.appmodel.SignatureFactory`
over the JBoss preset; every signature is labelled by the factory call
that made it, and the label fixes the verdict the client-side validator
must reach.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.appmodel import PRESETS, SignatureFactory, generate_application
from repro.core.signature import DeadlockSignature
from repro.crypto.userid import UserIdAuthority
from repro.loadgen.signatures import random_signature

#: The paper's daily quota (§III-C1) and the server's default.
ADDS_PER_USER = 10
#: Template sets drawn per run; users cycle through them.
TEMPLATE_SETS = 8
#: Line numbers of minted variants start here, above every line
#: ``random_signature`` draws (1..4999).
_VARIANT_BASE = 10_000


@dataclass(frozen=True)
class _Template:
    head: bytes
    tail: bytes

    def mint(self, line: int) -> bytes:
        return self.head + str(line).encode() + self.tail


def _template(signature: DeadlockSignature) -> _Template:
    """Split ``signature``'s blob around the line number of the bottom
    frame of its first inner stack (threads sort by their outer stacks,
    so rewriting an inner frame keeps the encoding canonical)."""
    blob = signature.to_bytes()
    frame = signature.threads[0].inner[0]
    encoded = frame.encode().encode()
    if blob.count(encoded) != 1:
        raise ValueError("template frame is not unique in its blob")
    start = blob.index(encoded)
    prefix = f"{frame.class_name}.{frame.method}:".encode()
    line_at = start + len(prefix)
    line_end = line_at + len(str(frame.line))
    return _Template(blob[:line_at], blob[line_end:])


def user_template_sets(seed: int, sets: int = TEMPLATE_SETS
                       ) -> list[list[_Template]]:
    """``sets`` lists of :data:`ADDS_PER_USER` templates; within a list
    the top-frame sets are pairwise disjoint (never adjacent)."""
    rng = random.Random(seed)
    result = []
    for _ in range(sets):
        chosen: list[DeadlockSignature] = []
        used: set = set()
        while len(chosen) < ADDS_PER_USER:
            candidate = random_signature(rng)
            if candidate.top_frames & used:
                continue
            used |= candidate.top_frames
            chosen.append(candidate)
        result.append([_template(sig) for sig in chosen])
    return result


class UserStream:
    """The ADDs one generator connection sends, user after user.

    User ``j`` of connection ``c`` has uid ``c * 10**6 + j + 1`` and a
    token minted with the server's predefined key (§III-C2), so no
    ISSUE_ID round trip is needed.  Every blob is distinct within a run:
    its variant line is unique to (connection, sequence number).
    """

    def __init__(self, seed: int, connection: int, connections: int,
                 templates: list[list[_Template]]):
        self._authority = UserIdAuthority(
            rng=random.Random(seed * 1009 + connection))
        self._connection = connection
        self._connections = connections
        self._templates = templates
        self._sent = 0
        self.users: list[list] = []  # [uid, token, ADDs sent]

    def _new_user(self) -> None:
        j = len(self.users)
        uid = self._connection * 10**6 + j + 1
        self.users.append([uid, self._authority.issue_for(uid), 0])

    def next_add(self) -> tuple[bytes, str]:
        """The next (blob, token): a fresh user every ADDS_PER_USER."""
        if not self.users or self.users[-1][2] == ADDS_PER_USER:
            self._new_user()
        user = self.users[-1]
        templates = self._templates[(len(self.users) - 1)
                                    % len(self._templates)]
        line = (_VARIANT_BASE + self._connection
                + self._sent * self._connections)
        blob = templates[user[2]].mint(line)
        user[2] += 1
        self._sent += 1
        return blob, user[1]

    def extra_add(self) -> tuple[bytes, str]:
        """An ADD by this stream's first user beyond the quota: a fresh
        blob (never sent before) under that user's token."""
        first = self.users[0]
        if first[2] < ADDS_PER_USER:
            raise ValueError("first user has not used its quota yet")
        line = (_VARIANT_BASE + self._connection
                + (self._sent + 10**7) * self._connections)
        return self._templates[0][0].mint(line), first[1]


# ------------------------------------------------------------------ join
#: Factory labels, their shares of the corpus, and the client-side
#: verdict each must get (``None``: accepted).
LABELS = (
    ("valid", 0.60, None),
    ("bad_hash", 0.15, "hash_mismatch"),
    ("non_nested", 0.10, "not_nested"),
    ("shallow", 0.10, "too_shallow"),
    ("foreign", 0.05, "hash_mismatch"),
)
JOIN_PRESET = "jboss"


def join_application():
    """The application every joining node runs (Table I's JBoss preset,
    full scale); its nested-site analysis is computed here, once."""
    app = generate_application(PRESETS[JOIN_PRESET])
    app.nested_sync_sites()
    return app


def labelled_corpus(app, seed: int, count: int
                    ) -> list[tuple[str, DeadlockSignature]]:
    """``count`` (label, signature) pairs drawn with the shares of
    :data:`LABELS`."""
    factory = SignatureFactory(app, seed=seed)
    rng = factory.rng
    makers = {
        "valid": lambda: factory.make_valid(depth=rng.randrange(5, 14)),
        "bad_hash": factory.make_bad_hash,
        "non_nested": factory.make_non_nested,
        "shallow": lambda: factory.make_shallow(depth=rng.randrange(1, 5)),
        "foreign": factory.make_foreign,
    }
    corpus = []
    for _ in range(count):
        roll = rng.random()
        for label, share, _ in LABELS:
            if roll < share:
                break
            roll -= share
        corpus.append((label, makers[label]()))
    return corpus


@dataclass
class JoinExpectation:
    """What every joining node must end up with, derived from labels."""

    sig_ids: frozenset
    accepted: int
    rejected: dict
    label_counts: dict


def expectation(corpus) -> JoinExpectation:
    """Distinct signatures (first label wins; the server stores a
    repeated signature once) and the verdict counts they imply."""
    verdict = {label: reason for label, _, reason in LABELS}
    seen: dict[str, str] = {}
    for label, signature in corpus:
        seen.setdefault(signature.sig_id, label)
    accepted = 0
    rejected: dict[str, int] = {}
    counts: dict[str, int] = {}
    for label in seen.values():
        counts[label] = counts.get(label, 0) + 1
        reason = verdict[label]
        if reason is None:
            accepted += 1
        else:
            rejected[reason] = rejected.get(reason, 0) + 1
    return JoinExpectation(frozenset(seen), accepted, rejected, counts)


def preload(data_dir: str, corpus) -> int:
    """Write ``corpus`` into a server data dir through the database and
    its write-ahead log; returns the number of records stored."""
    from repro.server.database import SignatureDatabase
    from repro.store import SignatureStore

    store = SignatureStore(data_dir, fsync="never")
    try:
        database = SignatureDatabase(store=store)
        for i, (_, signature) in enumerate(corpus):
            database.append(signature, signature.to_bytes(),
                            i // ADDS_PER_USER + 1)
        return len(database)
    finally:
        store.close(final_checkpoint=True)
