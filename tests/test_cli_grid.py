"""Replay of the CLI golden grid (see tests/cli_grid.py)."""

import cli_grid


def test_cli_grid_replays_the_golden_file(tmp_path):
    # Every input file, exit code and output byte of the grid is unchanged.
    golden = cli_grid.load()
    assert [r["argv"] for r in golden["runs"]] == cli_grid.GRID
    grid = cli_grid.generate(tmp_path)
    assert cli_grid.moved(golden, grid) == []
