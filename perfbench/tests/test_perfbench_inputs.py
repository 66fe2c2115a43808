"""Seeded inputs: quotas, adjacency, distinct blobs and factory labels."""

from collections import Counter

import pytest

from perfbench import inputs
from repro.core.signature import DeadlockSignature
from repro.core.validation import ClientSideValidator
from repro.server.validation import adjacent


def _streams(seed):
    templates = inputs.user_template_sets(seed)
    return [inputs.UserStream(seed, c, 2, templates) for c in range(2)]


@pytest.mark.parametrize("seed", [1, 7])
def test_no_user_sends_more_than_the_daily_quota(seed):
    sent = Counter()
    for stream in _streams(seed):
        for _ in range(537):
            _, token = stream.next_add()
            sent[token] += 1
    assert max(sent.values()) <= inputs.ADDS_PER_USER
    assert sum(sent.values()) == 2 * 537


def test_each_users_signatures_are_pairwise_non_adjacent_and_distinct():
    blobs = []
    for stream in _streams(3):
        by_user: dict[str, list] = {}
        for _ in range(200):
            blob, token = stream.next_add()
            blobs.append(blob)
            by_user.setdefault(token, []).append(
                DeadlockSignature.from_bytes(blob).top_frames)
        for tops in by_user.values():
            for i, a in enumerate(tops):
                assert all(not adjacent(a, b) for b in tops[i + 1:])
    assert len(set(blobs)) == len(blobs)


def test_minted_blobs_are_canonical_and_seed_determined():
    first = [s.next_add() for s in _streams(5) for _ in range(25)]
    again = [s.next_add() for s in _streams(5) for _ in range(25)]
    assert [b for b, _ in first] == [b for b, _ in again]
    for blob, _ in first:
        assert DeadlockSignature.from_bytes(blob).to_bytes() == blob


def test_extra_add_needs_a_spent_quota_and_is_fresh():
    stream = _streams(2)[0]
    stream.next_add()
    with pytest.raises(ValueError):
        stream.extra_add()
    sent = {stream.next_add()[0] for _ in range(inputs.ADDS_PER_USER * 2)}
    blob, token = stream.extra_add()
    assert blob not in sent
    assert token == stream.users[0][1]


@pytest.fixture(scope="module")
def app():
    return inputs.join_application()


def test_factory_labels_fix_the_client_side_verdict(app):
    corpus = inputs.labelled_corpus(app, seed=11, count=400)
    verdict = {label: reason for label, _, reason in inputs.LABELS}
    validator = ClientSideValidator(app)
    labels = Counter()
    for label, signature in corpus:
        labels[label] += 1
        result = validator.validate(signature)
        reason = None if result.accepted else result.reason.value
        assert reason == verdict[label], label
    assert set(labels) == {label for label, _, _ in inputs.LABELS}
    assert labels["valid"] > labels["bad_hash"] > labels["foreign"]


def test_expectation_counts_distinct_signatures(app):
    corpus = inputs.labelled_corpus(app, seed=11, count=400)
    expected = inputs.expectation(corpus)
    assert len(expected.sig_ids) == len({s.sig_id for _, s in corpus})
    # make_foreign is deterministic: every foreign signature is one blob.
    assert expected.label_counts["foreign"] == 1
    assert (expected.accepted + sum(expected.rejected.values())
            == len(expected.sig_ids))


def test_preload_stores_each_distinct_signature_once(app, tmp_path):
    from repro.store import SignatureStore

    corpus = inputs.labelled_corpus(app, seed=4, count=120)
    stored = inputs.preload(str(tmp_path / "data"), corpus)
    assert stored == len(inputs.expectation(corpus).sig_ids)
    store = SignatureStore(str(tmp_path / "data"), fsync="never")
    try:
        assert len(store.recovered_entries()) == stored
    finally:
        store.close(final_checkpoint=False)
