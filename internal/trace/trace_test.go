package trace

import (
	"strings"
	"testing"
)

func TestRecordJourney(t *testing.T) {
	var c Collector
	r := c.NewRecord(7, 1, 9, 100)
	r.Visit(1, 100, Injected)
	r.Visit(2, 102, Arrived)
	r.Visit(9, 104, Delivered)

	if !r.Completed() {
		t.Error("delivered packet should be complete")
	}
	s := r.String()
	for _, want := range []string{"pkt 7", "1->9", "inject@100", "->(2) arrive n2", "->(2) deliver n9"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q: %s", want, s)
		}
	}
}

func TestDroppedPacketIncomplete(t *testing.T) {
	var c Collector
	r := c.NewRecord(1, 0, 5, 0)
	r.Visit(0, 0, Injected)
	r.Visit(3, 4, Dropped)
	if r.Completed() {
		t.Error("dropped packet must not report complete")
	}
}

func TestCollectorOrdering(t *testing.T) {
	var c Collector
	c.NewRecord(5, 0, 1, 0)
	c.NewRecord(2, 0, 1, 0)
	c.NewRecord(9, 0, 1, 0)
	recs := c.Records()
	if len(recs) != 3 || recs[0].PacketID != 2 || recs[2].PacketID != 9 {
		t.Errorf("collector ordering wrong: %v", recs)
	}
}

func TestEmptyRecord(t *testing.T) {
	r := &Record{PacketID: 1}
	if r.Completed() {
		t.Error("empty record should be incomplete")
	}
}

func TestVisitKindStrings(t *testing.T) {
	want := map[VisitKind]string{Injected: "inject", Arrived: "arrive", Delivered: "deliver", Dropped: "drop"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q", k, k.String())
		}
	}
}
