package router

import "testing"

func TestBitsetBasics(t *testing.T) {
	b := NewBitset(130) // 3 words, last one partial
	if b.Any() || b.Count() != 0 {
		t.Fatal("fresh bitset should be empty")
	}
	for _, i := range []int{0, 63, 64, 127, 128, 129} {
		b.Set(i)
		if !b.Test(i) {
			t.Fatalf("Set(%d) not observed by Test", i)
		}
	}
	if b.Count() != 6 || !b.Any() {
		t.Fatalf("count = %d, want 6", b.Count())
	}
	b.Clear(64)
	if b.Test(64) || b.Count() != 5 {
		t.Fatal("Clear(64) did not remove the member")
	}

	dst := NewBitset(130)
	dst.CopyFrom(b)
	if dst.Count() != 5 || !dst.Test(129) {
		t.Fatal("CopyFrom did not reproduce the set")
	}
	dst.ClearAll()
	if dst.Any() {
		t.Fatal("ClearAll left members behind")
	}
	if b.Count() != 5 {
		t.Fatal("clearing the copy disturbed the source")
	}
}

func TestBitsetSetFirst(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 128, 130} {
		b := NewBitset(130)
		b.SetFirst(n)
		if b.Count() != n {
			t.Fatalf("SetFirst(%d): count = %d", n, b.Count())
		}
		if n > 0 && !b.Test(n-1) {
			t.Fatalf("SetFirst(%d): member %d missing", n, n-1)
		}
		if n < 130 && b.Test(n) {
			t.Fatalf("SetFirst(%d): member %d present", n, n)
		}
	}
}

func TestBitsetForEachIn(t *testing.T) {
	b := NewBitset(256)
	members := []int{3, 63, 64, 65, 127, 128, 200, 255}
	for _, i := range members {
		b.Set(i)
	}
	cases := []struct {
		lo, hi int
		want   []int
	}{
		{0, 256, members},
		{63, 65, []int{63, 64}},       // straddles a word boundary
		{64, 128, []int{64, 65, 127}}, // word-aligned lo, boundary hi
		{65, 66, []int{65}},           // single-member window
		{4, 63, nil},                  // gap inside the first word
		{128, 128, nil},               // empty range
		{200, 100, nil},               // inverted range
		{129, 256, []int{200, 255}},   // tail words, hi at capacity
	}
	for _, c := range cases {
		var got []int
		b.ForEachIn(c.lo, c.hi, func(i int) { got = append(got, i) })
		if len(got) != len(c.want) {
			t.Fatalf("ForEachIn(%d, %d) = %v, want %v", c.lo, c.hi, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("ForEachIn(%d, %d) = %v, want %v", c.lo, c.hi, got, c.want)
			}
		}
	}
}
