"""Unit tests of the statistics and checks in `perfbench/run.py`.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The harness's own tests (digests, paper error, span self time) run with
`cargo test --offline --manifest-path perfbench/harness/Cargo.toml`.
"""

import json
import os
import tempfile
import unittest

import run


class MedianTest(unittest.TestCase):
    def test_lower_middle(self):
        self.assertEqual(run.median([3.0, 1.0, 2.0]), 2.0)
        # Even count: the lower of the two middle samples, never their mean.
        self.assertEqual(run.median([4.0, 1.0, 3.0, 2.0]), 2.0)
        self.assertEqual(run.median([5.0]), 5.0)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            run.median([])


class TailTest(unittest.TestCase):
    def test_matrix_sizes(self):
        # Table 3: 130 cells -> p92, the 120th smallest, 10 cells beyond.
        self.assertEqual(run.tail(list(range(1, 131))), (92, 120))
        # Table 4: 60 cells -> p83, the 50th smallest, 10 cells beyond.
        self.assertEqual(run.tail(list(range(60, 0, -1))), (83, 50))
        # The smallest sample that has a tail: 11 cells -> p9, the minimum.
        self.assertEqual(run.tail(list(range(1, 12))), (9, 1))

    def test_highest_percentile_with_ten_beyond(self):
        for n in range(11, 3000):
            values = list(range(n))
            pct, v = run.tail(values)
            beyond = sum(1 for x in values if x > v)
            self.assertGreaterEqual(beyond, 10, n)
            higher = pct + 1
            rank = -(-higher * n // 100)
            self.assertLess(n - rank, 10, n)

    def test_too_few_samples(self):
        with self.assertRaises(ValueError):
            run.tail(list(range(10)))


class CheckTest(unittest.TestCase):
    WANT = {"digest": "aa", "table_digest": "tt", "cell_digests": ["1", "2", "3"]}

    def test_match(self):
        r = {"digest": "aa", "table_digest": "tt", "cell_digests": ["1", "2", "3"]}
        self.assertEqual(run.check(r, self.WANT, "x"), (0, []))

    def test_mismatching_cells_are_counted(self):
        r = {"digest": "bb", "table_digest": "tt", "cell_digests": ["1", "9", "9"]}
        bad, notes = run.check(r, self.WANT, "x")
        self.assertEqual(bad, 2)
        self.assertEqual(len(notes), 1)

    def test_table_mismatch_alone_fails(self):
        r = {"digest": "aa", "table_digest": "zz", "cell_digests": ["1", "2", "3"]}
        self.assertEqual(run.check(r, self.WANT, "x")[0], 1)

    def test_missing_result_fails_every_cell(self):
        self.assertEqual(run.check(None, self.WANT, "x")[0], 3)


class JournalObserverTest(unittest.TestCase):
    def test_leases_results_and_idle(self):
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "journal")
            obs = run.JournalObserver(path)
            t0 = run.time.perf_counter()
            obs.poll(t0)  # no journal yet
            with open(path, "w") as f:
                f.write("hbdc-journal v2\nmatrix 00\ncells 3\n"
                        "lease 0 101 5 1\nlease 1 202 5 1\n")
            obs.poll(t0, force=True)
            with open(path, "w") as f:
                f.write("hbdc-journal v2\nmatrix 00\ncells 3\n"
                        "ok 0 1 rec\nok 1 2 rec\nquar 2 3 boom\n")
            obs.poll(t0, force=True)
            self.assertEqual(sorted(obs.done), [0, 1, 2])
            self.assertEqual(obs.attempts, {0: 1, 1: 2, 2: 3})
            self.assertEqual(obs.owner, {0: "101", 1: "202"})
            # Cell 2's lease was never seen, so it has no latency.
            self.assertEqual(len(obs.cell_latencies()), 2)

    def test_idle_is_wall_minus_union_per_owner(self):
        obs = run.JournalObserver("unused")
        obs.leased = {0: 0.0, 1: 1.0, 2: 2.0}
        obs.done = {0: 2.0, 1: 3.0, 2: 4.0}
        obs.owner = {0: "a", 1: "a", 2: "b"}
        # Owner a covers 0..3 of a 10 s wall, owner b covers 2..4.
        self.assertAlmostEqual(obs.idle_by_owner(10.0), 7.0 + 8.0)


class ManifestTest(unittest.TestCase):
    def test_metric_lists_match_benchmark_json(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            manifest = json.load(f)
        self.assertEqual([(m["name"], m["unit"]) for m in manifest["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in manifest["per_layer"]],
                         run.PER_LAYER)
        self.assertEqual(sorted(w["name"] for w in manifest["workloads"]),
                         sorted(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
