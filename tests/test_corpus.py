"""The byte-identity contract: the tier-1 slice of the seeded corpus in
``corpus.py`` hashes as recorded in ``golden/corpus.sha256``."""

import corpus


def test_the_manifest_lists_every_corpus_command_once():
    labels = [corpus.label(argv) for _, argv in corpus.commands()]
    assert len(set(labels)) == len(labels)
    assert list(corpus.read_manifest()) == labels


def test_the_corpus_slice_is_byte_identical_to_the_manifest():
    results = corpus.run(full=False)
    # every exporter and command runs in the slice
    for words in ("--format text", "--format json", "--format dot", "verify", "compare",
                  "--query", "--irreducibles", "--lattice fcl", "--lattice rsl"):
        assert any(words in command for command, *_ in results), words
    assert corpus.mismatches(results) == []
