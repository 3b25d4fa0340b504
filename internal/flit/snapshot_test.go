package flit

import (
	"bytes"
	"errors"
	"testing"

	"github.com/rocosim/roco/internal/snapshot"
)

// TestCodecRejectsBadOutPort: routers index per-port arrays with a flit's
// OutPort in the first tick after a resume, so a loaded value that is no
// direction is corruption, not a later index panic.
func TestCodecRejectsBadOutPort(t *testing.T) {
	f := AppendSegment(nil, Packet{ID: 1, Flits: 1}, nil)[0]
	f.OutPort = 200
	e := snapshot.NewEncoder()
	(&Codec{}).Flit(e.Stream(), &f)
	var buf bytes.Buffer
	if _, err := e.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := snapshot.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var loaded *Flit
	(&Codec{}).Flit(d.Stream(), &loaded)
	if err := d.Finish(); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Errorf("OutPort 200: load returned %v, want corruption", err)
	}
}
