package testonly

import (
	"path/filepath"
	"strings"
	"testing"
)

// repo is this module's layout. The root package's exported API, the
// commands, the examples and the scripts are no candidates; routertest
// is test support, so its references count as test references.
var repo = layout{
	root:    filepath.Join("..", ".."),
	nested:  []string{"cmd/rocoperf"},
	exempt:  []string{"cmd", "examples", "scripts", "internal/router/routertest"},
	support: []string{"internal/router/routertest"},
}

// allowlist holds the test-only declarations kept on purpose, each with
// its reason. It may only shrink: an entry that is no longer a hit fails
// the test too.
var allowlist = map[string]string{
	"internal/stats.(*Running).Merge":         "subject of the floor-pinned TestRunningMerge",
	"internal/stats.(*Series).Sorted":         "subject of the floor-pinned TestSeriesSortedAndLookup",
	"internal/stats.(*Series).YAt":            "subject of the floor-pinned TestSeriesSortedAndLookup",
	"internal/report.(*Table).AddRowf":        "subject of the floor-pinned TestTableAddRowf",
	"internal/report.(*Table).RenderCSV":      "subject of the floor-pinned TestTableRenderCSV",
	"internal/arbiter.(*RoundRobin).PeekMask": "subject of the floor-pinned TestRoundRobinPeekDoesNotAdvance",
	"internal/core.MinimumVCs":                "subject of the floor-pinned TestMinimumVCs",
	"internal/topology.ManhattanDistance":     "reference metric of the minimality tests of internal/routing, internal/router and internal/topology",
}

// TestNoTestOnlyDeclarations fails on every declaration in a non-test
// file that only tests reference, unless the allowlist names it, and on
// every allowlist entry that is no longer such a declaration.
func TestNoTestOnlyDeclarations(t *testing.T) {
	hits, err := findHits(repo)
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, h := range hits {
		found[h.name] = true
		if _, ok := allowlist[h.name]; !ok {
			t.Error(h)
		}
	}
	for name := range allowlist {
		if !found[name] {
			t.Errorf("allowlist entry %s is no longer referenced only by tests; delete the entry", name)
		}
	}
}

// TestFixture runs the gate on a module that holds one test-only
// function among declarations production reaches without a plain
// reference: an enum constant, heap Push and Pop, a String method and a
// constant used by its own const block.
func TestFixture(t *testing.T) {
	hits, err := findHits(layout{root: filepath.Join("testdata", "fixture")})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, h := range hits {
		got = append(got, h.String())
	}
	want := "internal/lib/lib.go:44: internal/lib.OnlyTests is referenced only by internal/lib/lib_test.go"
	if strings.Join(got, "\n") != want {
		t.Errorf("hits:\n%s\nwant:\n%s", strings.Join(got, "\n"), want)
	}
}
