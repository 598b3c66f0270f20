"""Run both benchmark suites and drop their TSV tables under results/.

    $ python scripts/run_benchmarks.py --results results/

`ratios` compares every solver against the exact optimum on small fixtures
(the built-in set, or --fixtures for a directory made by make_fixtures.py);
`scaling` times the near-linear clique solver while doubling n and reports
consecutive time ratios.
"""
import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from divmax.cli import main as divmax_main  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--results", default="results", help="output directory")
    ap.add_argument("--fixtures", help="instance directory for the ratios suite")
    ap.add_argument("--eps", type=float, default=0.3)
    args = ap.parse_args()
    results = pathlib.Path(args.results)
    results.mkdir(parents=True, exist_ok=True)

    ratios_argv = ["bench", "--suite", "ratios",
                   "--out", str(results / "ratios.tsv"),
                   "--eps", str(args.eps)]
    if args.fixtures:
        ratios_argv += ["--fixtures", args.fixtures]
    rc = divmax_main(ratios_argv)
    if rc != 0:
        return rc

    return divmax_main(["bench", "--suite", "scaling",
                        "--out", str(results / "scaling.tsv")])


if __name__ == "__main__":
    sys.exit(main())
