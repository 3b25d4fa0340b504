// Package lib is the fixture's internal package.
package lib

// Color is a typed enum; Green is referenced only by the test.
type Color int

// The colors.
const (
	Red Color = iota
	Green
)

// String is called only by fmt, through fmt.Stringer.
func (c Color) String() string { return [...]string{"red", "green"}[c] }

// base is referenced only from inside its own const block.
const (
	base    = 4
	Derived = base * 2
)

// Queue is a min-heap; container/heap calls Push and Pop.
type Queue []int

func (q Queue) Len() int           { return len(q) }
func (q Queue) Less(i, j int) bool { return q[i] < q[j] }
func (q Queue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }

// Push appends x.
func (q *Queue) Push(x any) { *q = append(*q, x.(int)) }

// Pop removes the last element.
func (q *Queue) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

// Used is called by production code.
func Used() int { return 1 }

// OnlyTests is called by nothing but lib_test.go: the gate's one hit.
func OnlyTests() int { return OnlyTests() }
