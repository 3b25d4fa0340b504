package roco

import (
	"encoding/csv"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"github.com/rocosim/roco/internal/power"
	"github.com/rocosim/roco/internal/report"
	"github.com/rocosim/roco/internal/routing"
	"github.com/rocosim/roco/internal/telemetry"
)

// VCClassNames lists the RoCo path-set class names in occupancy-index
// order (routing.Turn order): the TelemetryEpoch and TelemetryNode
// Occupancy slices are indexed by it. Baseline routers do not classify
// their channels, so their whole occupancy reports under "dx".
var VCClassNames = [...]string{"dx", "dy", "txy", "tyx", "Injxy", "Injyx"}

// TelemetryNode is one router's share of a telemetry epoch.
type TelemetryNode struct {
	// Event-count deltas over the epoch.
	LinkFlits, CrossbarTraversals int64
	SAGrants, CreditStalls        int64
	Ejections, EarlyEjections     int64
	// Occupancy is the flits buffered at the epoch's closing cycle by
	// path-set class (indexed per VCClassNames); OccupancyTotal sums it.
	Occupancy      []int64
	OccupancyTotal int64
	// LinkUtilization is the node's mean outgoing-link utilization over
	// the epoch, flits/link/cycle.
	LinkUtilization float64
}

// TelemetryEpoch is one closed sampling interval (StartCycle, EndCycle].
type TelemetryEpoch struct {
	// Index is the epoch's global sequence number (stable across ring
	// eviction).
	Index                         int64
	StartCycle, EndCycle, Cycles  int64
	Generated, Delivered, Dropped int64
	// Reliable-delivery deltas (zero unless Config.Reliable).
	Retransmissions, Recovered, GiveUps int64
	// Network-wide event-count deltas.
	LinkFlits, CrossbarFlits  int64
	SAGrants, SAConflicts     int64
	CreditStalls              int64
	Ejections, EarlyEjections int64
	// Occupancy snapshots buffered flits by class at the closing cycle
	// (indexed per VCClassNames).
	Occupancy      []int64
	OccupancyTotal int64
	// LinkUtilization and CrossbarUtilization are network means over
	// the epoch (flits/link/cycle; traversals/node/cycle).
	LinkUtilization, CrossbarUtilization float64
	// Energy is the epoch's per-module split.
	Energy EnergyBreakdown
	// Nodes is the per-router split, indexed by node id.
	Nodes []TelemetryNode
}

// TelemetryTotals accumulates every epoch ever sampled; it survives
// epoch-ring eviction, so it always covers the whole telemetry span.
type TelemetryTotals struct {
	Epochs, Cycles                      int64
	Generated, Delivered, Dropped       int64
	Retransmissions, Recovered, GiveUps int64
	LinkFlits, CrossbarFlits            int64
	SAGrants, SAConflicts               int64
	CreditStalls                        int64
	Ejections, EarlyEjections           int64
	Energy                              EnergyBreakdown
}

// Telemetry is the epoch time series of one run (Result.Telemetry, nil
// unless Config.TelemetryEvery was set). Epochs are chronological; when
// the ring capacity was exceeded the oldest were evicted
// (EvictedEpochs), with their contribution preserved in Totals.
type Telemetry struct {
	// Every is the epoch length in cycles; Width/Height the mesh shape.
	Every         int64
	Width, Height int
	// Links[i] is node i's live outgoing link count (utilization
	// denominator).
	Links         []int
	EvictedEpochs int64
	Totals        TelemetryTotals
	Epochs        []TelemetryEpoch
}

// UtilizationGrid returns epoch e's per-node link utilization as a
// Width x Height grid (row-major, index y*Width+x), the input to
// heatmap rendering.
func (t *Telemetry) UtilizationGrid(e *TelemetryEpoch) []float64 {
	out := make([]float64, len(e.Nodes))
	for i := range e.Nodes {
		out[i] = e.Nodes[i].LinkUtilization
	}
	return out
}

// RenderHeatmap writes an ASCII per-node link-utilization heatmap of
// one epoch.
func (t *Telemetry) RenderHeatmap(w io.Writer, e *TelemetryEpoch) {
	hm := &report.Heatmap{
		Title: fmt.Sprintf("Epoch %d (cycles %d..%d) link utilization (flits/link/cycle), %dx%d mesh",
			e.Index, e.StartCycle, e.EndCycle, t.Width, t.Height),
		Width:  t.Width,
		Height: t.Height,
		Value:  t.UtilizationGrid(e),
	}
	hm.Render(w)
}

// WriteCSV writes the epoch-level series as CSV: one row per epoch with
// the network-wide counters, utilizations, per-class occupancy, and the
// per-module energy split.
func (t *Telemetry) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	head := []string{
		"epoch", "start_cycle", "end_cycle", "cycles",
		"generated", "delivered", "dropped",
		"retransmissions", "recovered", "giveups",
		"link_flits", "crossbar_flits", "sa_grants", "sa_conflicts",
		"credit_stalls", "ejections", "early_ejections",
		"link_utilization", "crossbar_utilization",
	}
	for _, c := range VCClassNames {
		head = append(head, "occ_"+c)
	}
	head = append(head, "buffers_nj", "crossbar_nj", "links_nj",
		"arbitration_nj", "routing_nj", "ejection_nj", "leakage_nj")
	if err := cw.Write(head); err != nil {
		return err
	}
	for i := range t.Epochs {
		e := &t.Epochs[i]
		row := []string{
			itoa(e.Index), itoa(e.StartCycle), itoa(e.EndCycle), itoa(e.Cycles),
			itoa(e.Generated), itoa(e.Delivered), itoa(e.Dropped),
			itoa(e.Retransmissions), itoa(e.Recovered), itoa(e.GiveUps),
			itoa(e.LinkFlits), itoa(e.CrossbarFlits), itoa(e.SAGrants), itoa(e.SAConflicts),
			itoa(e.CreditStalls), itoa(e.Ejections), itoa(e.EarlyEjections),
			ftoa(e.LinkUtilization), ftoa(e.CrossbarUtilization),
		}
		for _, occ := range e.Occupancy {
			row = append(row, itoa(occ))
		}
		row = append(row,
			ftoa(e.Energy.BuffersNJ), ftoa(e.Energy.CrossbarNJ), ftoa(e.Energy.LinksNJ),
			ftoa(e.Energy.ArbitrationNJ), ftoa(e.Energy.RoutingNJ),
			ftoa(e.Energy.EjectionNJ), ftoa(e.Energy.LeakageNJ))
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteNodeCSV writes the per-node series as CSV: one row per (epoch,
// node) with the node's event deltas, occupancy split, and utilization.
func (t *Telemetry) WriteNodeCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	head := []string{
		"epoch", "node", "x", "y",
		"link_flits", "crossbar_traversals", "sa_grants", "credit_stalls",
		"ejections", "early_ejections", "occupancy", "link_utilization",
	}
	for _, c := range VCClassNames {
		head = append(head, "occ_"+c)
	}
	if err := cw.Write(head); err != nil {
		return err
	}
	for i := range t.Epochs {
		e := &t.Epochs[i]
		for id := range e.Nodes {
			n := &e.Nodes[id]
			row := []string{
				itoa(e.Index), strconv.Itoa(id),
				strconv.Itoa(id % t.Width), strconv.Itoa(id / t.Width),
				itoa(n.LinkFlits), itoa(n.CrossbarTraversals), itoa(n.SAGrants), itoa(n.CreditStalls),
				itoa(n.Ejections), itoa(n.EarlyEjections), itoa(n.OccupancyTotal),
				ftoa(n.LinkUtilization),
			}
			for _, occ := range n.Occupancy {
				row = append(row, itoa(occ))
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

func itoa(v int64) string   { return strconv.FormatInt(v, 10) }
func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// convertTelemetry mirrors the internal telemetry series into the
// public representation.
func convertTelemetry(cfg Config, s *telemetry.Series) *Telemetry {
	if s == nil {
		return nil
	}
	t := &Telemetry{
		Every:         s.Every,
		Width:         cfg.Width,
		Height:        cfg.Height,
		Links:         s.Links,
		EvictedEpochs: s.Evicted,
		Totals: TelemetryTotals{
			Epochs: s.Totals.Epochs, Cycles: s.Totals.Cycles,
			Generated: s.Totals.Generated, Delivered: s.Totals.Delivered, Dropped: s.Totals.Dropped,
			Retransmissions: s.Totals.Retransmissions, Recovered: s.Totals.Recovered, GiveUps: s.Totals.GiveUps,
			LinkFlits: s.Totals.LinkFlits, CrossbarFlits: s.Totals.CrossbarFlits,
			SAGrants: s.Totals.SAGrants, SAConflicts: s.Totals.SAConflicts,
			CreditStalls: s.Totals.CreditStalls,
			Ejections:    s.Totals.Ejections, EarlyEjections: s.Totals.EarlyEjections,
			Energy: convertEnergy(s.Totals.Energy),
		},
		Epochs: make([]TelemetryEpoch, len(s.Epochs)),
	}
	for i := range s.Epochs {
		src := &s.Epochs[i]
		e := TelemetryEpoch{
			Index: src.Index, StartCycle: src.StartCycle, EndCycle: src.EndCycle, Cycles: src.Cycles,
			Generated: src.Generated, Delivered: src.Delivered, Dropped: src.Dropped,
			Retransmissions: src.Retransmissions, Recovered: src.Recovered, GiveUps: src.GiveUps,
			LinkFlits: src.LinkFlits, CrossbarFlits: src.CrossbarFlits,
			SAGrants: src.SAGrants, SAConflicts: src.SAConflicts,
			CreditStalls: src.CreditStalls,
			Ejections:    src.Ejections, EarlyEjections: src.EarlyEjections,
			Occupancy:           make([]int64, routing.NumClasses),
			OccupancyTotal:      src.OccupancyTotal,
			LinkUtilization:     s.LinkUtilization(src),
			CrossbarUtilization: s.CrossbarUtilization(src),
			Energy:              convertEnergy(src.Energy),
			Nodes:               make([]TelemetryNode, len(src.Nodes)),
		}
		copy(e.Occupancy, src.Occupancy[:])
		for id := range src.Nodes {
			n := &src.Nodes[id]
			pn := TelemetryNode{
				LinkFlits: n.LinkFlits, CrossbarTraversals: n.CrossbarTraversals,
				SAGrants: n.SAGrants, CreditStalls: n.CreditStalls,
				Ejections: n.Ejections, EarlyEjections: n.EarlyEjections,
				Occupancy:       make([]int64, routing.NumClasses),
				OccupancyTotal:  int64(n.OccupancyTotal),
				LinkUtilization: n.LinkUtilization(s.Links[id], src.Cycles),
			}
			for cl, occ := range n.Occupancy {
				pn.Occupancy[cl] = int64(occ)
			}
			e.Nodes[id] = pn
		}
		t.Epochs[i] = e
	}
	return t
}

// convertEnergy mirrors an internal energy split into the public one.
func convertEnergy(b power.Breakdown) EnergyBreakdown {
	return EnergyBreakdown{
		BuffersNJ: b.BuffersNJ, CrossbarNJ: b.CrossbarNJ, LinksNJ: b.LinksNJ,
		ArbitrationNJ: b.ArbitrationNJ, RoutingNJ: b.RoutingNJ,
		EjectionNJ: b.EjectionNJ, LeakageNJ: b.LeakageNJ,
	}
}

// TelemetrySince returns the run's telemetry epochs with Index greater
// than since (pass -1 for everything retained), plus the eviction-proof
// totals — the incremental read behind live epoch streaming (the
// campaign service's SSE feed polls it from checkpoint hooks). It
// returns nil when telemetry is disabled or no newer epoch has closed.
// Safe to call concurrently with a running simulation: the collector is
// sampled at kernel barriers and read under its own lock.
func (s *Sim) TelemetrySince(since int64) *Telemetry {
	c := s.net.Telemetry()
	if c == nil {
		return nil
	}
	ser := c.SnapshotSince(since)
	if ser == nil {
		return nil
	}
	return convertTelemetry(s.cfg, ser)
}

// MetricsHandler returns the Prometheus text-format handler over the
// Sim's live telemetry collector (stdlib only; mount it at /metrics). It
// serves consistent epoch snapshots while the Sim runs — the collector
// is sampled at kernel barriers and read under its own lock — and keeps
// serving final values after the run returns; rocosim -serve mounts it.
// It panics unless Config.TelemetryEvery is set.
func (s *Sim) MetricsHandler() http.Handler {
	c := s.net.Telemetry()
	if c == nil {
		panic("roco: MetricsHandler needs Config.TelemetryEvery")
	}
	return telemetry.Metrics(c)
}
