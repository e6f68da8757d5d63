package audit

import "sync"

// flight memoizes one computation per index and runs it once however many
// goroutines ask first: the one that finds no entry computes, the others
// wait for it and share its value. A start state is O(guest memory) to
// fold — at 16 MiB, 10–20 ms and 16 MiB of allocation — so two first
// requests for one index must not both pay it. A failed computation is
// shared with those already waiting and then forgotten, so a later request
// tries again. The zero value is ready to use.
type flight[V any] struct {
	mu    sync.Mutex
	calls map[int]*flightCall[V]
}

// flightCall is one computation: in flight until done is closed, the memo
// entry afterwards.
type flightCall[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// do returns the memoized value for k, computing it with fn if no other
// caller has or is.
func (f *flight[V]) do(k int, fn func() (V, error)) (V, error) {
	f.mu.Lock()
	if c, ok := f.calls[k]; ok {
		f.mu.Unlock()
		<-c.done
		return c.v, c.err
	}
	c := &flightCall[V]{done: make(chan struct{})}
	if f.calls == nil {
		f.calls = make(map[int]*flightCall[V])
	}
	f.calls[k] = c
	f.mu.Unlock()
	c.v, c.err = fn()
	if c.err != nil {
		f.mu.Lock()
		delete(f.calls, k)
		f.mu.Unlock()
	}
	close(c.done)
	return c.v, c.err
}
