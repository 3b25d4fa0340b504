package report

import (
	"math"
	"strings"
	"testing"

	"github.com/rocosim/roco/internal/stats"
)

func TestTableRender(t *testing.T) {
	tbl := NewTable("Title", "a", "bbbb")
	tbl.AddRow("x", "1")
	tbl.AddRow("longer", "2")
	var sb strings.Builder
	tbl.Render(&sb)
	out := sb.String()
	if !strings.Contains(out, "Title") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "| longer | 2    |") {
		t.Errorf("column alignment wrong:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	width := len(lines[1])
	for _, l := range lines[1:] {
		if len(l) != width {
			t.Errorf("ragged table:\n%s", out)
		}
	}
}

func TestTableAddRowf(t *testing.T) {
	tbl := NewTable("", "a", "b")
	tbl.AddRowf("%d\t%d", 1, 2)
	if tbl.Rows[0][0] != "1" || tbl.Rows[0][1] != "2" {
		t.Errorf("AddRowf split wrong: %v", tbl.Rows[0])
	}
}

func TestPlotRender(t *testing.T) {
	s := &stats.Series{Label: "roco"}
	for i := 0; i < 10; i++ {
		s.Append(float64(i), float64(i*i))
	}
	p := &Plot{Title: "t", XLabel: "x", YLabel: "y", Series: []*stats.Series{s}, Width: 40, Height: 10}
	var sb strings.Builder
	p.Render(&sb)
	out := sb.String()
	if !strings.Contains(out, "roco") || !strings.Contains(out, "*") {
		t.Errorf("plot missing legend or marker:\n%s", out)
	}
	if !strings.Contains(out, "81.0") {
		t.Errorf("plot missing y-axis max:\n%s", out)
	}
}

func TestPlotClipsAtYMax(t *testing.T) {
	s := &stats.Series{Label: "x"}
	s.Append(0, 10)
	s.Append(1, 1e9) // saturation blow-up
	p := &Plot{Series: []*stats.Series{s}, YMax: 100, Width: 20, Height: 5}
	var sb strings.Builder
	p.Render(&sb)
	if !strings.Contains(sb.String(), "100.0") {
		t.Errorf("plot should clip at YMax:\n%s", sb.String())
	}
}

func TestPlotEmpty(t *testing.T) {
	var sb strings.Builder
	(&Plot{Title: "none"}).Render(&sb)
	if !strings.Contains(sb.String(), "no data") {
		t.Error("empty plot should say so")
	}
}

func TestTableRenderCSV(t *testing.T) {
	tbl := NewTable("t", "a", "b")
	tbl.AddRow("1", "x,y")
	var sb strings.Builder
	if err := tbl.RenderCSV(&sb); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,\"x,y\"\n"
	if sb.String() != want {
		t.Errorf("CSV = %q, want %q", sb.String(), want)
	}
}

// TestHeatmapRenderIsTotal: a cell below zero or NaN takes the coldest
// shade instead of indexing before the shade table, the way a cell at the
// maximum takes the hottest. Telemetry epochs that span the warm-up
// boundary can hold negative link-flit deltas next to a positive maximum.
func TestHeatmapRenderIsTotal(t *testing.T) {
	h := Heatmap{Width: 4, Height: 1, Value: []float64{-12, math.NaN(), 0.5, 1}}
	var sb strings.Builder
	h.Render(&sb)
	row := strings.SplitN(sb.String(), "\n", 2)[0]
	if want := "      ==@@"; row != want { // two-space indent, two characters a cell
		t.Errorf("row = %q, want %q", row, want)
	}
}
