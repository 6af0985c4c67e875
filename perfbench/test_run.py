"""Self-tests of run.py's statistics and output checks.

    cd perfbench && python3 -m unittest test_run
(also run by `python3 perfbench/run.py --self-test`).
"""

import unittest

import run


def make_pass(seed, accs=(0.2, 0.4), published=10, rounds=30, error="",
              violations=0):
    p = {
        "seed": seed, "warmup": False, "wall_s": 1.0, "published": published,
        "transactions": published + 1, "wire_bytes": 40 * published,
        "ledger_bytes": 40 * (published + 1), "violations": violations,
        "error": error, "round_ms": [10.0] * rounds,
        "evals": [[5 * (i + 1), a, 1.0 - a, 0.1 * (i + 1)]
                  for i, a in enumerate(accs)],
    }
    return p


def make_doc(passes):
    return run.prepare({"passes": passes, "setup_s": [0.01, 0.02, 0.03],
                        "peak_rss_kb": 2048})


class PercentileRule(unittest.TestCase):
    def test_p90_needs_ten_samples_beyond_it(self):
        self.assertIsNone(run.percentile(list(range(99)), 0.9))
        self.assertEqual(run.percentile(list(range(1, 101)), 0.9), 90)

    def test_median_needs_ten_samples_beyond_it(self):
        self.assertIsNone(run.percentile([1.0] * 19, 0.5))
        self.assertEqual(run.percentile(list(range(1, 21)), 0.5), 10)

    def test_nearest_rank_is_a_sample(self):
        values = [3.0, 1.0, 2.0] * 40
        self.assertIn(run.percentile(values, 0.9), values)

    def test_spread_is_quartile_distance_over_median(self):
        share, q1, median, q3 = run.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertAlmostEqual(median, 5.5)
        self.assertAlmostEqual(share, (q3 - q1) / 5.5)

    def test_too_few_rounds_fails_the_run(self):
        log = run.CheckLog()
        run.check_run(make_doc([make_pass(16, rounds=50)]), log)
        self.assertEqual(log.failed, 1)
        self.assertIn("p90", log.messages[0])


class FailedShare(unittest.TestCase):
    def test_clean_run_counts_every_round_and_check(self):
        log = run.CheckLog()
        run.check_run(make_doc([make_pass(16, rounds=60),
                                make_pass(16, rounds=60)]), log)
        # Per pass: itself, 60 rounds, 4 checks; plus the p90 check.
        self.assertEqual(log.attempted, 2 * (1 + 60 + 4) + 1)
        self.assertEqual(log.failed, 0)
        self.assertEqual(log.ok_share(), 1.0)

    def test_thrown_round_and_invariant_violation_count(self):
        log = run.CheckLog()
        run.check_run(make_doc([make_pass(16, rounds=60, error="round threw"),
                                make_pass(17, rounds=60, violations=2)]), log)
        self.assertEqual(log.failed, 2)
        self.assertAlmostEqual(log.ok_share(), 1 - 2 / log.attempted)

    def test_repeat_mismatch_counts(self):
        log = run.CheckLog()
        run.check_run(make_doc([make_pass(16, rounds=60),
                                make_pass(16, rounds=60, published=11)]), log)
        self.assertEqual(log.failed, 1)
        self.assertIn("repeat", log.messages[0])

    def test_traced_mismatch_counts(self):
        log = run.CheckLog()
        reference = run.check_run(make_doc([make_pass(16, rounds=120)]), log)
        run.check_run(make_doc([make_pass(16, accs=(0.2, 0.5), rounds=120)]),
                      log, reference)
        self.assertEqual(log.failed, 1)
        self.assertIn("traced", log.messages[0])

    def test_lossless_check_compares_common_rounds(self):
        log = run.CheckLog()
        plain = make_doc([make_pass(16, accs=(0.2, 0.4, 0.5))])
        run.check_lossless(make_doc([make_pass(16, accs=(0.2, 0.4))]), plain,
                           log)
        self.assertEqual(log.failed, 0)
        run.check_lossless(make_doc([make_pass(16, accs=(0.2, 0.3))]), plain,
                           log)
        self.assertEqual(log.failed, 1)

    def test_ok_share_reaches_the_metrics(self):
        log = run.CheckLog()
        doc = make_doc([make_pass(16, rounds=120, violations=1)])
        run.check_run(doc, log)
        values, samples = run.end_to_end(doc, "femnist_sync", log)
        self.assertEqual(samples, 120)
        self.assertAlmostEqual(values["ok_share"], 1 - 1 / log.attempted)
        self.assertLess(values["ok_share"], 1.0)


class EndToEnd(unittest.TestCase):
    def test_time_to_acc_takes_the_first_crossing(self):
        p = make_pass(16, accs=(0.1, 0.3, 0.2))
        self.assertAlmostEqual(run.time_to_acc(p, 0.25), 0.2)
        self.assertEqual(run.time_to_acc(p, 0.9), p["wall_s"])

    def test_one_late_pass_leaves_time_to_acc_unmoved(self):
        # Targets 0.1: four passes cross at the first evaluation (0.1 s),
        # one only at the second (0.2 s).
        passes = [make_pass(16 + i, accs=(0.3, 0.4)) for i in range(4)]
        passes.append(make_pass(20, accs=(0.05, 0.4)))
        values, _ = run.end_to_end(make_doc(passes), "femnist_sync",
                                   run.CheckLog())
        self.assertAlmostEqual(values["time_to_acc_s"], 0.1)

    def test_interquartile_mean_drops_each_outer_quarter(self):
        self.assertAlmostEqual(run.interquartile_mean([9, 1, 2, 3, 4, 0, 5, 6]),
                               3.5)
        self.assertAlmostEqual(run.interquartile_mean([1, 2, 3]), 2.0)

    def test_per_tx_figures_and_final_accuracy(self):
        log = run.CheckLog()
        doc = make_doc([make_pass(16, accs=(0.2, 0.4), rounds=60),
                        make_pass(17, accs=(0.2, 0.6), rounds=60)])
        values, _ = run.end_to_end(doc, "femnist_sync", log)
        self.assertAlmostEqual(values["final_acc"], 0.5)
        self.assertAlmostEqual(values["wire_bytes_per_tx"], 40.0)
        self.assertAlmostEqual(values["ledger_bytes_per_tx"], 44.0)
        self.assertAlmostEqual(values["tx_per_s"], 10.0)
        self.assertAlmostEqual(values["setup_s"], 0.02)
        self.assertAlmostEqual(values["peak_rss_mb"], 2.0)
        self.assertEqual(set(values), set(run.END_TO_END_UNITS))


if __name__ == "__main__":
    unittest.main()
