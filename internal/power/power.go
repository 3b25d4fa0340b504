// Package power implements the energy model of the evaluation. The paper
// synthesizes the three routers in a TSMC 90 nm library (1 V, 500 MHz),
// extracts per-component dynamic and leakage power at 50% switching
// activity, and back-annotates those numbers into the cycle-accurate
// simulator, multiplying by observed activity factors.
//
// This reproduction substitutes the synthesis step with an analytic
// structural model (documented in DESIGN.md): each event's energy scales
// with the size of the hardware that serves it — crossbar energy with the
// input-output product, arbiter energy with request fan-in, buffer energy
// with flit width and depth — normalized to 90 nm magnitudes. Because all
// three routers are costed by the same formulas, the relative comparisons
// (Figure 13's 20%/6% energy-per-packet gaps) follow from their structures,
// exactly as in the paper.
package power

import (
	"fmt"

	"github.com/rocosim/roco/internal/router"
)

// Profile holds the per-event energies (in nJ) and per-cycle leakage (in
// nJ/cycle) of one router instance.
type Profile struct {
	Name string

	// Per-event dynamic energies, nJ.
	BufferWrite   float64
	BufferRead    float64
	CrossbarXfer  float64
	LinkXfer      float64
	VAOp          float64
	SAOp          float64
	RouteComp     float64
	EjectDelivery float64

	// D2DXfer is the per-flit energy of one die-to-die boundary-link
	// traversal (nJ), replacing LinkXfer on those hops. Zero on a
	// single-die profile; the run layer sets it from the configured
	// interface class (D2DParallelXfer or D2DSerialXfer) and applies the
	// difference through D2DPremiumNJ, since activity counters price every
	// link flit at LinkXfer first.
	D2DXfer float64

	// LeakagePerCycle is the router's static energy per cycle, nJ.
	LeakagePerCycle float64
}

// Technology constants for the 90 nm / 1 V / 500 MHz operating point.
// Values are per-bit or per-unit normalizations chosen to land total
// router power in the hundreds-of-milliwatts range typical of published
// 90 nm NoC routers; see DESIGN.md for the substitution rationale.
const (
	FlitBits = 128

	// eBufBit is the energy to write or read one bit of an input buffer
	// (register-file cell), nJ.
	eBufBitWrite = 3.8e-5
	eBufBitRead  = 3.1e-5
	// eXbarBitPort is the crossbar traversal energy per bit per attached
	// port-pair unit: a P_in x P_out crossbar costs
	// eXbarBitPort * bits * sqrt(Pin*Pout) per traversal.
	eXbarBitPort = 1.35e-5
	// eLinkBit is the per-bit link traversal energy (1 mm wire at 90 nm).
	eLinkBit = 3.9e-5
	// eD2DParBit is the per-bit energy of a parallel die-to-die crossing
	// (dense micro-bump interface: short but heavily loaded wires plus
	// boundary latches — roughly 5x an on-die 1 mm hop).
	eD2DParBit = 2.0e-4
	// eD2DSerBit is the per-bit energy of a serialized die-to-die lane,
	// including the serializer/deserializer overhead of time-multiplexing
	// the flit onto a narrow off-chip channel.
	eD2DSerBit = 6.5e-4
	// eArbReq is the arbitration energy per request line evaluated.
	eArbReq = 5.2e-5
	// eRoute is the energy of one route computation.
	eRoute = 2.6e-4
	// eEject is the PE-interface delivery energy per flit.
	eEject = 8.0e-4
	// leakPerBufferBit is static energy per buffered bit per cycle.
	// Leakage is a large fraction of total energy at 90 nm (the paper's
	// energy model separates dynamic and leakage for exactly this
	// reason); these constants put a router's static power at ~13 mW,
	// roughly 40% of its total at 30% load.
	leakPerBufferBit = 3.2e-6
	// leakPerXbarPoint is static energy per crossbar crosspoint (bit x
	// port-pair) per cycle.
	leakPerXbarPoint = 6.8e-7
	// leakBase is the fixed control-logic leakage per router per cycle.
	leakBase = 1.4e-4
)

// Structure describes the hardware shape of a router variant; the profile
// is derived from it.
type Structure struct {
	Name string
	// BufferFlits is the total buffering (flits) in the router.
	BufferFlits int
	// Crossbars lists the (inputs, outputs) of each switch fabric in the
	// router: one 5x5 for the generic router, one decomposed 4x4 (costed
	// as half a full 4x4) for the path-sensitive router, two 2x2 for RoCo.
	Crossbars [][2]int
	// CrossbarScale discounts partially populated fabrics (the
	// path-sensitive router's decomposed crossbar has half the
	// crosspoints of a full 4x4).
	CrossbarScale float64
	// VAFanIn and SAFanIn are the average request fan-ins of one VA/SA
	// arbitration operation (paper Figure 2: 5v:1 arbiters for the generic
	// VA versus 2v:1 for RoCo).
	VAFanIn int
	SAFanIn int
}

// GenericStructure is the paper's generic 5-port router: 60 flits of
// buffering, one full 5x5 crossbar, 5v:1 VA arbiters (v=3) and 5:1 SA
// output arbiters.
func GenericStructure() Structure {
	return Structure{
		Name:          "generic",
		BufferFlits:   60,
		Crossbars:     [][2]int{{5, 5}},
		CrossbarScale: 1,
		VAFanIn:       15, // 5v:1, v=3
		SAFanIn:       5,  // P:1 output stage over 5 ports
	}
}

// PathSensitiveStructure is the DAC'05 path-sensitive router: 60 flits,
// one decomposed 4x4 crossbar with half the connections, quadrant path
// sets.
func PathSensitiveStructure() Structure {
	return Structure{
		Name:        "path-sensitive",
		BufferFlits: 60,
		Crossbars:   [][2]int{{4, 4}},
		// The decomposed crossbar has half the crosspoints of a full 4x4,
		// but its wires still span the full four-port footprint, and wire
		// capacitance dominates traversal energy — hence a discount well
		// short of 0.5.
		CrossbarScale: 0.85,
		VAFanIn:       9, // 3v:1 within a quadrant neighborhood, v=3
		SAFanIn:       2, // 2:1 output stage (two path sets per output)
	}
}

// RoCoStructure is the proposed router: 60 flits split over two modules,
// each with a compact 2x2 crossbar, 2v:1 VA arbiters and the single 2:1
// mirror arbiter per module.
func RoCoStructure() Structure {
	return Structure{
		Name:          "roco",
		BufferFlits:   60,
		Crossbars:     [][2]int{{2, 2}, {2, 2}},
		CrossbarScale: 1,
		VAFanIn:       6, // 2v:1, v=3
		SAFanIn:       2, // mirror allocator: one 2:1 global arbiter
	}
}

// PDRStructure is the partitioned dimension-order router of the related
// work: two 3x3 crossbars (X and Y modules) whose operation is intertwined
// through an internal transfer channel.
func PDRStructure() Structure {
	return Structure{
		Name:          "pdr",
		BufferFlits:   60,
		Crossbars:     [][2]int{{3, 3}, {3, 3}},
		CrossbarScale: 1,
		VAFanIn:       4, // 2v:1, v=2
		SAFanIn:       3, // 3:1 output stage
	}
}

// NewProfile derives the per-event energy profile of a router structure.
func NewProfile(s Structure) Profile {
	bufBits := float64(s.BufferFlits * FlitBits)
	var xbarXfer, xbarPoints float64
	for _, cb := range s.Crossbars {
		size := sqrtf(float64(cb[0] * cb[1]))
		xbarXfer += eXbarBitPort * FlitBits * size * s.CrossbarScale
		xbarPoints += float64(cb[0]*cb[1]) * FlitBits * s.CrossbarScale
	}
	// A flit traverses one fabric per hop; with multiple fabrics the
	// traversal cost is that of one (they are parallel, not chained).
	xbarXfer /= float64(len(s.Crossbars))

	return Profile{
		Name:            s.Name,
		BufferWrite:     eBufBitWrite * FlitBits,
		BufferRead:      eBufBitRead * FlitBits,
		CrossbarXfer:    xbarXfer,
		LinkXfer:        eLinkBit * FlitBits,
		VAOp:            eArbReq * float64(s.VAFanIn),
		SAOp:            eArbReq * float64(s.SAFanIn),
		RouteComp:       eRoute,
		EjectDelivery:   eEject,
		LeakagePerCycle: leakBase + leakPerBufferBit*bufBits + leakPerXbarPoint*xbarPoints,
	}
}

// D2DParallelXfer returns the per-flit energy of one parallel die-to-die
// boundary crossing, and D2DSerialXfer its serialized-lane counterpart.
// The run layer writes one of them into Profile.D2DXfer on chiplet
// topologies.
func D2DParallelXfer() float64 { return eD2DParBit * FlitBits }

// D2DSerialXfer returns the per-flit energy of one serialized die-to-die
// boundary crossing.
func D2DSerialXfer() float64 { return eD2DSerBit * FlitBits }

// D2DPremiumNJ is the extra energy of repricing d2dFlits boundary-link
// traversals at the profile's die-to-die cost: the activity counters
// charged every link flit LinkXfer already, so only the difference is
// added. Zero when the profile has no D2D cost (single-die runs).
func D2DPremiumNJ(p Profile, d2dFlits int64) float64 {
	if d2dFlits <= 0 || p.D2DXfer <= p.LinkXfer {
		return 0
	}
	return (p.D2DXfer - p.LinkXfer) * float64(d2dFlits)
}

func sqrtf(x float64) float64 {
	// Newton iteration; avoids importing math for one call and keeps the
	// package free of float edge cases (inputs are small positive ints).
	if x <= 0 {
		return 0
	}
	z := x
	for i := 0; i < 20; i++ {
		z = (z + x/z) / 2
	}
	return z
}

// Report is the energy outcome of one run.
type Report struct {
	DynamicNJ float64
	LeakageNJ float64
}

// TotalNJ returns dynamic plus leakage energy.
func (r Report) TotalNJ() float64 { return r.DynamicNJ + r.LeakageNJ }

// PerPacketNJ divides the total energy across delivered packets, the
// paper's "energy consumption per packet" (total network energy over a
// period divided by packets delivered in that period).
func (r Report) PerPacketNJ(delivered int64) float64 {
	if delivered <= 0 {
		return 0
	}
	return r.TotalNJ() / float64(delivered)
}

// Account converts accumulated router activity into energy.
func Account(p Profile, a *router.Activity) Report {
	dyn := p.BufferWrite*float64(a.BufferWrites) +
		p.BufferRead*float64(a.BufferReads) +
		p.CrossbarXfer*float64(a.CrossbarTraversals) +
		p.LinkXfer*float64(a.LinkFlits) +
		p.VAOp*float64(a.VAOps) +
		p.SAOp*float64(a.SAOps) +
		p.RouteComp*float64(a.RouteComputations) +
		p.EjectDelivery*float64(a.Ejections+a.EarlyEjections)
	leak := p.LeakagePerCycle * float64(a.Cycles)
	return Report{DynamicNJ: dyn, LeakageNJ: leak}
}

// String renders the profile for reports.
func (p Profile) String() string {
	return fmt.Sprintf("%s: bufW=%.2e bufR=%.2e xbar=%.2e link=%.2e va=%.2e sa=%.2e leak/cyc=%.2e nJ",
		p.Name, p.BufferWrite, p.BufferRead, p.CrossbarXfer, p.LinkXfer, p.VAOp, p.SAOp, p.LeakagePerCycle)
}

// Breakdown splits a run's energy by component group, the view the
// paper's Figure 13 discussion reasons about (buffer energy versus
// crossbar energy versus arbitration).
type Breakdown struct {
	BuffersNJ     float64
	CrossbarNJ    float64
	LinksNJ       float64
	ArbitrationNJ float64
	RoutingNJ     float64
	EjectionNJ    float64
	LeakageNJ     float64
}

// AccountDetailed converts activity into a per-component energy split.
// Its totals equal Account's.
func AccountDetailed(p Profile, a *router.Activity) Breakdown {
	return Breakdown{
		BuffersNJ:     p.BufferWrite*float64(a.BufferWrites) + p.BufferRead*float64(a.BufferReads),
		CrossbarNJ:    p.CrossbarXfer * float64(a.CrossbarTraversals),
		LinksNJ:       p.LinkXfer * float64(a.LinkFlits),
		ArbitrationNJ: p.VAOp*float64(a.VAOps) + p.SAOp*float64(a.SAOps),
		RoutingNJ:     p.RouteComp * float64(a.RouteComputations),
		EjectionNJ:    p.EjectDelivery * float64(a.Ejections+a.EarlyEjections),
		LeakageNJ:     p.LeakagePerCycle * float64(a.Cycles),
	}
}
