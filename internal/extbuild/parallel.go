package extbuild

import (
	"sync"
	"sync/atomic"
)

// fanOut runs items [0, n) on up to workers goroutines. Each goroutine
// calls work once with its worker index and a next function that hands
// out item indices in ascending order from a shared counter. After the
// first error next reports no more items, and fanOut returns that error
// once every goroutine has finished.
func fanOut(workers, n int, work func(w int, next func() (int, bool)) error) error {
	var (
		ctr      atomic.Int64
		stop     atomic.Bool
		errMu    sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	next := func() (int, bool) {
		if stop.Load() {
			return 0, false
		}
		i := int(ctr.Add(1) - 1)
		return i, i < n
	}
	for w := range min(workers, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := work(w, next); err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
				stop.Store(true)
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// fanOutOrdered is fanOut for items whose results must be committed in
// item order: prepare(w, i) runs in parallel, commit(w, i) runs once
// items 0..i-1 have committed. Items are handed out in ascending order,
// so the lowest uncommitted item's worker never waits, and at most one
// prepared item per worker is held.
func fanOutOrdered(workers, n int, prepare, commit func(w, i int) error) error {
	t := &turnstile{}
	t.cond.L = &t.mu
	return fanOut(workers, n, func(w int, next func() (int, bool)) error {
		for i, ok := next(); ok; i, ok = next() {
			err := prepare(w, i)
			if err == nil {
				if !t.wait(i) {
					return nil // another worker failed; fanOut reports its error
				}
				err = commit(w, i)
				t.done()
			}
			if err != nil {
				t.fail()
				return err
			}
		}
		return nil
	})
}

// turnstile admits item i once items 0..i-1 are done, or releases every
// waiter once a worker has failed.
type turnstile struct {
	mu     sync.Mutex
	cond   sync.Cond
	next   int
	failed bool
}

func (t *turnstile) wait(i int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	for t.next != i && !t.failed {
		t.cond.Wait()
	}
	return !t.failed
}

func (t *turnstile) done() {
	t.mu.Lock()
	t.next++
	t.mu.Unlock()
	t.cond.Broadcast()
}

func (t *turnstile) fail() {
	t.mu.Lock()
	t.failed = true
	t.mu.Unlock()
	t.cond.Broadcast()
}
