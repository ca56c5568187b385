// Package lockfree exercises the wavedag:lockfree contract checker
// with one clean reader, one function violating every rule class, the
// allocation waiver, and an unwaivable channel receive.
package lockfree

import "sync"

type T struct {
	mu  sync.Mutex
	val int
	buf []int
}

// Val is a clean annotated reader.
//
//wavedag:lockfree
func (t *T) Val() int { return t.val }

// helper carries no annotation, so lock-free code may not call it.
func helper() int { return 1 }

// Bad locks, allocates, and calls unannotated in-module code.
//
//wavedag:lockfree
func (t *T) Bad() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := make([]int, 4)
	_ = s
	return helper()
}

// Grow allocates, with the function-level escape hatch.
//
//wavedag:lockfree
//wavedag:allow-alloc (grow path)
func (t *T) Grow() {
	t.buf = append(t.buf, 1)
}

// Blocks receives from a channel; no directive waives blocking.
//
//wavedag:lockfree
func Blocks(ch chan int) int {
	return <-ch
}
