"""Smoke test of the differential harness (`tests/differential.py`).

A small corpus runs twice on this tree, under `python` and `python -O`,
and no request may differ.
"""

import differential


def test_small_corpus_runs_alike_twice_on_one_tree():
    corpus = differential.build_corpus(seed=0, size=36)
    assert [argv[0] for argv in corpus[: len(differential.VERBS)]] == list(differential.VERBS)
    src = differential.REPO / "src"
    plain = differential.run_corpus(src, corpus, optimize=False)
    optimized = differential.run_corpus(src, corpus, optimize=True)
    assert len(plain) == len(corpus) == 36 + 7
    # Exit 1 is an SVG asked of a verb that prints no polygon or graph: the
    # seven fixed refusals that end the corpus.
    assert {code for code, _, _ in plain} == {0, 1, 2}
    assert all(code == 1 and "svg is not available" in err for code, _, err in plain[36:])
    assert differential.differing(corpus, plain, optimized) == {}
    # A changed exit code, digest or message is reported under its verb.
    changed = [list(result) for result in plain]
    changed[12][2] += "!"
    assert differential.differing(corpus, plain, changed) == {"chains": [12]}
