package main

import (
	"go/parser"
	"go/token"
	"reflect"
	"testing"
)

// testDecls indexes a small two-package module: package router declares a
// struct type embedding a base, an interface, and a package-level
// function.
func testDecls(t *testing.T) *decls {
	t.Helper()
	ds := newDecls()
	for _, src := range []string{`package router
type Base struct{ Node int }
func (b *Base) Idle() bool { return true }
type Chassis struct {
	Base
	VCs []int
}
type Router interface{ Tick(cycle int64) }
func NewVC() {}
`, `package network
type Network struct{}
func (n *Network) RunWindows() {}
`} {
		f, err := parser.ParseFile(token.NewFileSet(), "x.go", src, 0)
		if err != nil {
			t.Fatal(err)
		}
		ds.addFile(f)
	}
	return ds
}

func TestLineRefs(t *testing.T) {
	ds := testDecls(t)
	for _, c := range []struct {
		line string
		want []string
	}{
		{"`router.Chassis` resolves", nil},
		{"`router.Removed` does not", []string{"router.Removed"}},
		{"fields, methods, promoted and interface methods: `Chassis.VCs`, `Network.RunWindows`, `Chassis.Idle()`, `Router.Tick`", nil},
		{"a package-qualified member: `router.Chassis.Node` resolves, `router.Chassis.Bind` does not", []string{"router.Chassis.Bind"}},
		{"a deleted type or member: `Mirror.Resync(ids)`, `Network.Engine()`", []string{"Mirror.Resync", "Network.Engine"}},
		{"skipped: `vc.syncAlloc`, `n.routers[id].Idle()`, `math.MaxInt8`, `network.go`, outside a span router.Gone", nil},
	} {
		if got := ds.lineRefs(c.line); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%q: unresolved %v, want %v", c.line, got, c.want)
		}
	}
}
