"""Unit tests for the EXPERIMENTS.md report generator."""

from pathlib import Path

from repro.analysis.base import FigureResult
from repro.analysis.report import (
    EXPERIMENTS,
    _render_fleet_section,
    load_bench_record,
    render_markdown,
    write_experiments_md,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestFigureResult:
    def test_render_text_contains_rows_and_anchors(self):
        r = FigureResult(
            figure_id="Figure X",
            title="test",
            rows=[{"a": 1, "b": 0.5}],
            anchors={"thing": (0.5, 0.52)},
            notes="a note",
        )
        text = r.render_text()
        assert "Figure X" in text
        assert "a=1" in text
        assert "thing" in text
        assert "a note" in text

    def test_anchor_within_absolute_for_fractions(self):
        r = FigureResult("f", "t", anchors={"x": (0.5, 0.58)})
        assert r.anchor_within("x", 0.10)
        assert not r.anchor_within("x", 0.05)

    def test_anchor_within_relative_for_magnitudes(self):
        r = FigureResult("f", "t", anchors={"x": (100.0, 120.0)})
        assert r.anchor_within("x", 0.25)
        assert not r.anchor_within("x", 0.10)


class TestReport:
    def test_sixteen_experiments(self):
        assert len(EXPERIMENTS) == 16

    def test_render_markdown_smoke(self):
        results = [
            FigureResult("Figure 1", "t", rows=[{"a": 1}], anchors={"x": (1.0, 1.1)})
        ]
        md = render_markdown(results)
        assert "## Figure 1" in md
        assert "| anchor | paper | measured |" in md

    def test_every_row_value_survives_rendering(self):
        rows = [
            {"workload": "alpha", "score": 0.125},
            {"app": "beta", "speedup": 7, "score": 0.25},
            {"app": "gamma", "energy": "low"},
        ]
        md = render_markdown([FigureResult("Figure H", "t", rows=rows)])
        section = md.split("## Figure H — t\n", 1)[1].strip().split("\n\n")[0]
        header, rule, *body = section.splitlines()
        assert rule == "|---|---|---|---|---|"
        # Header: the union of row keys, in first-seen order.
        assert header == "| workload | score | app | speedup | energy |"
        assert body == [
            "| alpha | 0.125 |  |  |  |",
            "|  | 0.250 | beta | 7 |  |",
            "|  |  | gamma |  | low |",
        ]

    def test_write_experiments_md(self, tmp_path):
        # The committed report must be exactly what the models produce:
        # any drift in a figure, anchor or benchmark record fails here.
        path = tmp_path / "EXPERIMENTS.md"
        written = write_experiments_md(str(path))
        assert written == str(path)
        assert path.read_bytes() == (REPO_ROOT / "EXPERIMENTS.md").read_bytes()

    def test_fleet_section_round_trips(self):
        # The fleet section is the last one; render_markdown ends the
        # document with one more newline.
        committed = (REPO_ROOT / "EXPERIMENTS.md").read_text()
        heading = "## Distributed sweeps"
        rendered = _render_fleet_section(load_bench_record("fleet_smoke")) + "\n"
        assert rendered.startswith(heading)
        assert committed[committed.index(heading):] == rendered


class TestCachedParallelResults:
    def test_cached_results_match_fresh(self, tmp_path):
        import time

        from repro.analysis.report import all_results
        from repro.core.memo import MemoCache

        cache = MemoCache(tmp_path)
        t0 = time.perf_counter()
        cold = all_results(cache=cache)
        cold_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        warm = all_results(cache=cache)
        warm_s = time.perf_counter() - t0
        assert [r.to_jsonable() for r in warm] == [r.to_jsonable() for r in cold]
        # Acceptance bar is <25% of the cold wall clock; a warm run does
        # no model work at all, so in practice it is ~1%.
        assert warm_s < 0.25 * cold_s

    def test_parallel_results_match_serial(self, tmp_path):
        from repro.analysis.report import EXPERIMENTS, all_results

        serial = all_results()
        parallel = all_results(jobs=2)
        assert len(serial) == len(EXPERIMENTS)
        assert [r.to_jsonable() for r in parallel] == [
            r.to_jsonable() for r in serial
        ]


class TestFigureResultJson:
    def test_roundtrip(self):
        r = FigureResult(
            "Figure X", "t", rows=[{"a": 1}], anchors={"x": (1.0, 1.1)}, notes="n"
        )
        back = FigureResult.from_jsonable(r.to_jsonable())
        assert back == r
        assert isinstance(back.anchors["x"], tuple)
