"""The one-shot summary CLI."""

from repro import summary


class TestSummaryCli:
    def test_full_summary_runs(self, capsys):
        summary.main(["--table3-scale", "0.012"])
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "exact" in out and "DIFFERS" not in out
        assert "average speedup" in out
        assert "12.5%" in out

    def test_skip_table3(self, capsys):
        summary.main(["--skip-table3"])
        out = capsys.readouterr().out
        assert "Table 3" not in out
        assert "Section 1 / 4.1 claims" in out


class TestSanitizerSection:
    def test_leaves_no_sanitizer_installed(self):
        from repro.analysis.sanitize import active_sanitizer
        from repro.host import shm

        out = summary.sanitizer_section()
        assert "clean" in out and "MISSED" not in out
        assert active_sanitizer() is None
        assert shm.get_transport_observer() is None
