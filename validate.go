package roco

import (
	"errors"
	"fmt"

	"github.com/rocosim/roco/internal/topology"
)

// Validate checks a configuration for mistakes Run would otherwise turn
// into panics or silently-absurd results. Run calls it internally (after
// applying defaults) and panics on error — simulation configs are almost
// always static — while library users who build configurations dynamically
// can call it directly and handle the error.
func (c Config) Validate() error {
	c = c.withDefaults()
	var errs []error
	if c.Width < 2 || c.Height < 2 {
		errs = append(errs, fmt.Errorf("mesh %dx%d too small (need at least 2x2)", c.Width, c.Height))
	}
	if c.multichip() {
		switch {
		case c.ChipsX < 1 || c.ChipsY < 1 || c.ChipW < 1 || c.ChipH < 1:
			errs = append(errs, fmt.Errorf("chiplet grid needs all of ChipsX, ChipsY, ChipW, ChipH positive (got %dx%d chips of %dx%d)",
				c.ChipsX, c.ChipsY, c.ChipW, c.ChipH))
		case c.Width != c.ChipsX*c.ChipW || c.Height != c.ChipsY*c.ChipH:
			errs = append(errs, fmt.Errorf("grid %dx%d does not match the %dx%d chiplet grid of %dx%d-node chips (leave Width/Height zero to derive them)",
				c.Width, c.Height, c.ChipsX, c.ChipsY, c.ChipW, c.ChipH))
		}
	} else if c.D2DClass != D2DParallel || c.D2DLatency != 0 || c.D2DGap != 0 {
		errs = append(errs, errors.New("die-to-die knobs (D2DClass/D2DLatency/D2DGap) set without a chiplet grid"))
	}
	var grid *topology.Grid // built only from a geometry that checked out
	if len(errs) == 0 {
		grid = buildTopology(c)
	}
	if c.D2DClass < D2DParallel || c.D2DClass > D2DSerial {
		errs = append(errs, fmt.Errorf("unknown die-to-die class %d", int(c.D2DClass)))
	}
	if c.D2DLatency < 0 || c.D2DGap < 0 {
		errs = append(errs, fmt.Errorf("die-to-die timing must be non-negative (latency %d, gap %d)", c.D2DLatency, c.D2DGap))
	}
	if c.Router < Generic || c.Router > PDR {
		errs = append(errs, fmt.Errorf("unknown router kind %d", int(c.Router)))
	}
	if c.Algorithm < XY || c.Algorithm > Adaptive {
		errs = append(errs, fmt.Errorf("unknown algorithm %d", int(c.Algorithm)))
	}
	if c.Router == PDR && c.Algorithm != XY {
		errs = append(errs, errors.New("the PDR router supports XY routing only"))
	}
	if c.Torus && (c.Router != Generic || c.Algorithm != XY) {
		errs = append(errs, errors.New("the torus extension supports the generic router with XY routing only"))
	}
	if c.Traffic < Uniform || c.Traffic > Hotspot {
		errs = append(errs, fmt.Errorf("unknown traffic pattern %d", int(c.Traffic)))
	}
	// Negated range checks, so that NaN fails them too.
	if !(c.InjectionRate >= 0 && c.InjectionRate <= 1) {
		errs = append(errs, fmt.Errorf("injection rate %v outside [0,1] flits/node/cycle", c.InjectionRate))
	}
	if c.FlitsPerPacket < 1 || c.FlitsPerPacket > 64 {
		errs = append(errs, fmt.Errorf("flits per packet %d outside [1,64]", c.FlitsPerPacket))
	}
	if c.WarmupPackets < 0 || c.MeasurePackets < 1 {
		errs = append(errs, fmt.Errorf("run length invalid (warmup %d, measure %d)", c.WarmupPackets, c.MeasurePackets))
	}
	if c.Traffic == Hotspot {
		if c.HotspotNode < 0 || c.HotspotNode >= c.Width*c.Height {
			errs = append(errs, fmt.Errorf("hotspot node %d outside the %dx%d mesh", c.HotspotNode, c.Width, c.Height))
		}
		if !(c.HotspotFraction >= 0 && c.HotspotFraction <= 1) {
			errs = append(errs, fmt.Errorf("hotspot fraction %v outside [0,1]", c.HotspotFraction))
		}
	}
	// D2DInterface faults are checked against the actual grid: the named
	// node's chiplet must have an interface on the named side (a single die
	// has none).
	checkFault := func(what string, i int, f Fault) {
		nodeOK := f.Node >= 0 && f.Node < c.Width*c.Height
		if !nodeOK {
			errs = append(errs, fmt.Errorf("%s %d at nonexistent node %d", what, i, f.Node))
		}
		if f.Component < RC || f.Component > D2DInterface {
			errs = append(errs, fmt.Errorf("%s %d has unknown component %d", what, i, int(f.Component)))
		}
		if f.Component != D2DInterface {
			return
		}
		switch {
		case f.Side < SideNorth || f.Side > SideWest:
			errs = append(errs, fmt.Errorf("%s %d has unknown side %d", what, i, int(f.Side)))
		case nodeOK && grid != nil && len(grid.InterfaceNodes(grid.ChipOf(f.Node), topology.Direction(f.Side))) == 0:
			errs = append(errs, fmt.Errorf("%s %d: node %d's chiplet has no die-to-die interface toward %s", what, i, f.Node, f.Side))
		}
	}
	for i, f := range c.Faults {
		checkFault("fault", i, f)
	}
	for i, tf := range c.FaultSchedule {
		if tf.Cycle < 0 {
			errs = append(errs, fmt.Errorf("scheduled fault %d at negative cycle %d", i, tf.Cycle))
		}
		checkFault("scheduled fault", i, tf.Fault)
	}
	// A negative cycle count is never a default: MaxCycles ends the run at
	// once, InactivityLimit stops a healthy one, and TelemetryEvery records
	// nothing yet moves the fingerprint.
	for _, k := range []struct {
		what string
		v    int64
	}{{"audit interval", c.AuditEvery}, {"max cycles", c.MaxCycles},
		{"inactivity limit", c.InactivityLimit}, {"telemetry interval", c.TelemetryEvery}} {
		if k.v < 0 {
			errs = append(errs, fmt.Errorf("%s %d negative", k.what, k.v))
		}
	}
	if c.Shards < 0 {
		errs = append(errs, fmt.Errorf("shard count %d negative", c.Shards))
	}
	if c.Workers < 0 {
		errs = append(errs, fmt.Errorf("worker count %d negative", c.Workers))
	}
	if c.RetransmitTimeout < 0 || c.RetransmitMaxTimeout < 0 || c.RetransmitMaxRetries < 0 {
		errs = append(errs, fmt.Errorf("retransmission knobs must be non-negative (timeout %d, max timeout %d, max retries %d)",
			c.RetransmitTimeout, c.RetransmitMaxTimeout, c.RetransmitMaxRetries))
	}
	if !c.Reliable && (c.RetransmitTimeout != 0 || c.RetransmitMaxTimeout != 0 || c.RetransmitMaxRetries != 0) {
		errs = append(errs, errors.New("retransmission knobs set without Reliable"))
	}
	return errors.Join(errs...)
}
