// Package fixture is the gate's test module: internal/lib declares one
// function that only its test calls, next to declarations that production
// code reaches in ways a plain reference count misses.
package fixture

import (
	"container/heap"
	"fmt"

	"example.com/fixture/internal/lib"
)

// Run reaches lib through an enum constant, container/heap and fmt.
func Run() int {
	q := &lib.Queue{3, 1, 2}
	heap.Init(q)
	heap.Push(q, 0)
	fmt.Println(lib.Red)
	return heap.Pop(q).(int) + lib.Derived + lib.Used()
}
