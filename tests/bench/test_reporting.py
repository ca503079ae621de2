"""Table rendering for the benchmarks."""

from repro.bench import render_table


class TestRenderTable:
    def test_alignment_and_title(self):
        text = render_table(
            ["name", "count"],
            [["alpha", 5], ["b", 123]],
            title="demo",
        )
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "name" in lines[1] and "count" in lines[1]
        assert set(lines[2]) <= {"-", " "}
        # Numeric cells right-justified under their header.
        assert lines[3].rstrip().endswith("5")
        assert lines[4].rstrip().endswith("123")

    def test_floats_formatted(self):
        text = render_table(["x"], [[1.23456]])
        assert "1.23" in text and "1.2345" not in text

    def test_empty_rows(self):
        text = render_table(["a", "b"], [])
        assert "a" in text

    def test_mixed_types(self):
        text = render_table(["k", "v"], [["ratio", 0.5], ["words", 7]])
        assert "0.50" in text and "7" in text
