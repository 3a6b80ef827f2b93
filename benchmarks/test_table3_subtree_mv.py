"""Table 3: end-to-end latency of subtree mv for growing directories."""

import pytest

from repro.bench.experiments import table3_subtree_mv

from _shared import QUICK, report, tabulate

pytestmark = pytest.mark.bench

SIZES = (4_096, 8_192, 16_384) if not QUICK else (1_024, 4_096)


def test_table3_subtree_mv():
    rows = table3_subtree_mv(directory_sizes=SIZES)
    report(
        "table3",
        "Table 3 — subtree mv end-to-end latency (ms)",
        tabulate(
            ["files", "HopsFS", "λFS", "λFS advantage"],
            [
                [r["files"], r["hopsfs"], r["lambda"],
                 f"{(r['hopsfs'] - r['lambda']) / r['hopsfs'] * 100:.1f}%"]
                for r in rows
            ],
        ),
    )
    # §5.5: λFS completes mv faster at the smaller sizes; the
    # advantage shrinks as the persistent store becomes the bottleneck.
    assert rows[0]["lambda"] < rows[0]["hopsfs"]
    first_adv = (rows[0]["hopsfs"] - rows[0]["lambda"]) / rows[0]["hopsfs"]
    last_adv = (rows[-1]["hopsfs"] - rows[-1]["lambda"]) / rows[-1]["hopsfs"]
    assert last_adv < first_adv
    # Latency grows roughly linearly with directory size.
    assert rows[-1]["lambda"] > 2 * rows[0]["lambda"]
