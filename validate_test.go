package roco

import (
	"math"
	"strings"
	"testing"
)

func TestValidateAcceptsDefaults(t *testing.T) {
	if err := (Config{InjectionRate: 0.2}).Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}

func TestValidateCatchesMistakes(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"tiny mesh", Config{Width: 1, Height: 8, InjectionRate: 0.1}, "too small"},
		{"pdr adaptive", Config{Router: PDR, Algorithm: Adaptive, InjectionRate: 0.1}, "XY routing only"},
		{"negative rate", Config{InjectionRate: -0.5}, "injection rate"},
		{"NaN rate", Config{InjectionRate: math.NaN()}, "injection rate"},
		{"huge packets", Config{InjectionRate: 0.1, FlitsPerPacket: 100}, "flits per packet"},
		{"bad fault node", Config{InjectionRate: 0.1, Faults: []Fault{{Node: 999}}}, "nonexistent node"},
		{"bad hotspot", Config{InjectionRate: 0.1, Traffic: Hotspot, HotspotNode: -3}, "hotspot node"},
		{"NaN hotspot fraction", Config{InjectionRate: 0.1, Traffic: Hotspot, HotspotFraction: math.NaN()}, "hotspot fraction"},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if err == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q missing %q", tc.name, err, tc.want)
		}
	}
}

func TestRunPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Run should panic on an invalid config")
		}
	}()
	Run(Config{Router: PDR, Algorithm: Adaptive, InjectionRate: 0.1})
}

func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatalf("default options rejected: %v", err)
	}
	o := DefaultOptions()
	o.Width = 1
	if err := o.Validate(); err == nil || !strings.Contains(err.Error(), "too small") {
		t.Errorf("1-wide mesh: got %v, want a too-small error", err)
	}
}
