package lib

import "testing"

func TestOnlyTests(t *testing.T) {
	if Green.String() != "green" {
		t.Fatal(Green)
	}
	_ = OnlyTests
}
