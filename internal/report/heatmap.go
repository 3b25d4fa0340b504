package report

import (
	"fmt"
	"io"
	"strings"
)

// Heatmap renders a W x H grid of values as ASCII shades, used for
// per-node link-utilization maps. Values are normalized to the grid
// maximum; negative and NaN values render as the coldest shade.
type Heatmap struct {
	Title  string
	Width  int
	Height int
	// Value[y*Width+x] is the cell intensity.
	Value []float64
	// ChipW and ChipH, when positive, draw die-boundary separators every
	// ChipW columns and ChipH rows (hierarchical multi-chip grids).
	ChipW, ChipH int
}

// shades from cold to hot.
var shades = []byte{' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'}

// Render writes the heatmap to w, row y = Height-1 at the top (matching
// the coordinate system: Y grows northward).
func (h *Heatmap) Render(w io.Writer) {
	if h.Width*h.Height != len(h.Value) {
		panic(fmt.Sprintf("report: heatmap shape %dx%d does not match %d values", h.Width, h.Height, len(h.Value)))
	}
	max := 0.0
	for _, v := range h.Value {
		if v > max {
			max = v
		}
	}
	if h.Title != "" {
		fmt.Fprintf(w, "%s (max %.3f)\n", h.Title, max)
	}
	rowLen := 2 * h.Width
	if h.ChipW > 0 && h.Width > h.ChipW {
		rowLen += (h.Width - 1) / h.ChipW
	}
	for y := h.Height - 1; y >= 0; y-- {
		if h.ChipH > 0 && y != h.Height-1 && (y+1)%h.ChipH == 0 {
			fmt.Fprintf(w, "  %s\n", strings.Repeat("-", rowLen))
		}
		var sb strings.Builder
		for x := 0; x < h.Width; x++ {
			if h.ChipW > 0 && x != 0 && x%h.ChipW == 0 {
				sb.WriteByte('|')
			}
			// Render is total over its input: a cell at or above the
			// maximum takes the hottest shade, and one at or below zero,
			// or NaN, the coldest.
			v, idx := h.Value[y*h.Width+x], 0
			switch {
			case max > 0 && v >= max:
				idx = len(shades) - 1
			case v > 0:
				idx = int(v / max * float64(len(shades)-1))
			}
			sb.WriteByte(shades[idx])
			sb.WriteByte(shades[idx]) // double width for square-ish cells
		}
		fmt.Fprintf(w, "  %s\n", sb.String())
	}
	fmt.Fprintf(w, "  scale: '%c' = 0 ... '%c' = max\n\n", shades[0], shades[len(shades)-1])
}
