package router

import (
	"slices"
	"testing"
)

func TestBitsetBasics(t *testing.T) {
	b := NewBitset(130) // 3 words, last one partial
	empty := Bitset{0, 0, 0}
	if !slices.Equal(b, empty) {
		t.Fatalf("fresh bitset %#x should be empty", b)
	}
	for _, i := range []int{0, 63, 64, 127, 128, 129} {
		b.Set(i)
	}
	want := Bitset{1 | 1<<63, 1 | 1<<63, 0b11}
	if !slices.Equal(b, want) {
		t.Fatalf("after Set: %#x, want %#x", b, want)
	}

	dst := NewBitset(130)
	dst.CopyFrom(b)
	if !slices.Equal(dst, want) {
		t.Fatalf("CopyFrom gave %#x, want %#x", dst, want)
	}
	dst.ClearAll()
	if !slices.Equal(dst, empty) {
		t.Fatalf("ClearAll left %#x behind", dst)
	}
	if !slices.Equal(b, want) {
		t.Fatal("clearing the copy disturbed the source")
	}
}

func TestBitsetSetFirst(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 128, 130} {
		b := NewBitset(130)
		b.SetFirst(n)
		want := NewBitset(130)
		for i := 0; i < n; i++ {
			want.Set(i)
		}
		if !slices.Equal(b, want) {
			t.Fatalf("SetFirst(%d) = %#x, want %#x", n, b, want)
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
