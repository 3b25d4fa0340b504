// Text round-tripping for the public enumerations, so dynamically built
// configurations — rocoserve job submissions above all — read and write
// as self-describing JSON ("router": "roco", not "Router": 2). Each enum
// implements encoding.TextMarshaler/TextUnmarshaler with a canonical
// lowercase token and accepts the same aliases the rocosim flags do.
package roco

import "fmt"

// enumTokens maps each enum value to its canonical token (first) and
// accepted aliases. Unmarshaling is case-insensitive.
var (
	routerTokens = map[RouterKind][]string{
		Generic:       {"generic", "gen"},
		PathSensitive: {"pathsensitive", "path-sensitive", "ps"},
		RoCo:          {"roco"},
		PDR:           {"pdr"},
	}
	algorithmTokens = map[Algorithm][]string{
		XY:       {"xy", "dor"},
		XYYX:     {"xyyx", "xy-yx"},
		Adaptive: {"adaptive", "oddeven", "odd-even"},
	}
	trafficTokens = map[TrafficPattern][]string{
		Uniform:       {"uniform"},
		Transpose:     {"transpose"},
		SelfSimilar:   {"selfsimilar", "self-similar", "web"},
		MPEG2:         {"mpeg2", "mpeg", "video"},
		BitComplement: {"bitcomplement", "bit-complement"},
		Hotspot:       {"hotspot"},
	}
	componentTokens = map[Component][]string{
		RC:           {"rc"},
		Buffer:       {"buffer"},
		VA:           {"va"},
		SA:           {"sa"},
		Crossbar:     {"crossbar"},
		MuxDemux:     {"muxdemux", "mux/demux", "mux-demux"},
		D2DInterface: {"d2d", "d2dif", "d2d-if", "d2dinterface"},
	}
	d2dClassTokens = map[D2DClass][]string{
		D2DParallel: {"parallel", "par"},
		D2DSerial:   {"serial", "ser"},
	}
	faultClassTokens = map[FaultClass][]string{
		CriticalFaults:    {"critical"},
		NonCriticalFaults: {"noncritical", "non-critical"},
	}
)

// marshalEnum renders the canonical token for v.
func marshalEnum[E comparable](tokens map[E][]string, v E, kind string) ([]byte, error) {
	if names, ok := tokens[v]; ok {
		return []byte(names[0]), nil
	}
	return nil, fmt.Errorf("roco: unknown %s %v", kind, v)
}

// unmarshalEnum parses any accepted token for the enum, case-insensitively.
func unmarshalEnum[E comparable](tokens map[E][]string, text []byte, kind string) (E, error) {
	s := lower(string(text))
	for v, names := range tokens {
		for _, name := range names {
			if s == name {
				return v, nil
			}
		}
	}
	var zero E
	return zero, fmt.Errorf("roco: unknown %s %q", kind, string(text))
}

// lower is strings.ToLower restricted to ASCII (enum tokens are ASCII).
func lower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}

// MarshalText renders the canonical token ("generic", "pathsensitive",
// "roco", "pdr").
func (k RouterKind) MarshalText() ([]byte, error) { return marshalEnum(routerTokens, k, "router kind") }

// UnmarshalText parses a router-kind token (aliases "gen",
// "path-sensitive" and "ps" accepted, case-insensitive).
func (k *RouterKind) UnmarshalText(text []byte) error {
	v, err := unmarshalEnum(routerTokens, text, "router kind")
	if err == nil {
		*k = v
	}
	return err
}

// MarshalText renders the canonical token ("xy", "xyyx", "adaptive").
func (a Algorithm) MarshalText() ([]byte, error) { return marshalEnum(algorithmTokens, a, "algorithm") }

// UnmarshalText parses an algorithm token (aliases "dor", "xy-yx",
// "oddeven", "odd-even" accepted, case-insensitive).
func (a *Algorithm) UnmarshalText(text []byte) error {
	v, err := unmarshalEnum(algorithmTokens, text, "algorithm")
	if err == nil {
		*a = v
	}
	return err
}

// MarshalText renders the canonical token ("uniform", "transpose",
// "selfsimilar", "mpeg2", "bitcomplement", "hotspot").
func (p TrafficPattern) MarshalText() ([]byte, error) {
	return marshalEnum(trafficTokens, p, "traffic pattern")
}

// UnmarshalText parses a traffic-pattern token (aliases "self-similar",
// "web", "mpeg", "video", "bit-complement" accepted, case-insensitive).
func (p *TrafficPattern) UnmarshalText(text []byte) error {
	v, err := unmarshalEnum(trafficTokens, text, "traffic pattern")
	if err == nil {
		*p = v
	}
	return err
}

// MarshalText renders the canonical token ("rc", "buffer", "va", "sa",
// "crossbar", "muxdemux", "d2d").
func (c Component) MarshalText() ([]byte, error) { return marshalEnum(componentTokens, c, "component") }

// UnmarshalText parses a component token (aliases "mux/demux" and
// "mux-demux" accepted, case-insensitive).
func (c *Component) UnmarshalText(text []byte) error {
	v, err := unmarshalEnum(componentTokens, text, "component")
	if err == nil {
		*c = v
	}
	return err
}

// MarshalText renders the canonical token ("parallel", "serial").
func (c D2DClass) MarshalText() ([]byte, error) {
	return marshalEnum(d2dClassTokens, c, "d2d class")
}

// UnmarshalText parses a die-to-die class token (aliases "par" and "ser"
// accepted, case-insensitive).
func (c *D2DClass) UnmarshalText(text []byte) error {
	v, err := unmarshalEnum(d2dClassTokens, text, "d2d class")
	if err == nil {
		*c = v
	}
	return err
}

// MarshalText renders the canonical token ("critical", "noncritical").
func (c FaultClass) MarshalText() ([]byte, error) {
	return marshalEnum(faultClassTokens, c, "fault class")
}

// UnmarshalText parses a fault-class token (alias "non-critical"
// accepted, case-insensitive).
func (c *FaultClass) UnmarshalText(text []byte) error {
	v, err := unmarshalEnum(faultClassTokens, text, "fault class")
	if err == nil {
		*c = v
	}
	return err
}
