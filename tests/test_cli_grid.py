"""Replay of the CLI golden grid (see tests/cli_grid.py)."""

import cli_grid


def test_cli_grid_replays_the_golden_file(tmp_path):
    # Every input file, exit code and output byte of the grid is unchanged.
    # The bytes are promised only on the environment the file was recorded
    # on, so a failure on another one names both.
    golden = cli_grid.load()
    assert [r["argv"] for r in golden["runs"]] == cli_grid.GRID
    grid = cli_grid.generate(tmp_path)
    where = "" if golden["environment"] == grid["environment"] else (
        f"recorded on {golden['environment']}, replayed on {grid['environment']}")
    assert cli_grid.moved(golden, grid) == [], where
