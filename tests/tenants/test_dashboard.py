def test_tenant_row_tolerates_nonfinite_samples():
    # p99 over an empty interval yields NaN; the tenant dashboard's
    # rows (the fleet dashboard's spark rows) must render a hole glyph
    # and keep finite min/max.
    from repro.telemetry.dashboard import _spark_row
    nan = float("nan")
    row = _spark_row("  p99 ms", [(0.0, 5.0), (1.0, nan), (2.0, 7.0)], width=8)
    assert "·" in row
    assert "min 5" in row and "max 7" in row
    row = _spark_row("  p99 ms", [(0.0, nan)], width=8)
    assert "min 0" in row and "last nan" in row
