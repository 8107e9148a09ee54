//go:build !go1.23

package sim

// The baton over channels, for Go 1.22, which has no iter (package comment):
// each body is a goroutine, parked on a channel of its own, and a hand-off is
// a send on the channel of the thread picked. baton_coro.go is the same four
// primitives as coroutines; this file goes once go.mod's floor (and
// benchmark/go.mod's) reaches 1.23.

// threadBaton is the channel t's goroutine parks on. It holds the one token a
// parked goroutine is owed, so the waker never waits for it to arrive.
type threadBaton struct {
	wake chan struct{}
}

// machineBaton is the channel the last body to finish signals Run on.
type machineBaton struct {
	finished chan struct{}
}

// launch starts t's body on a goroutine of its own, which holds the baton
// from now on.
func (m *Machine) launch(t *thread) {
	if t.wake == nil {
		t.wake = make(chan struct{}, 1)
	}
	go m.runBody(t)
}

// hand passes the baton to t, or back to Run for good if t is nil.
func (m *Machine) hand(t *thread) {
	if t == nil {
		m.finished <- struct{}{}
		return
	}
	t.wake <- struct{}{}
}

// park waits until the baton is handed back to t.
func (m *Machine) park(t *thread) { <-t.wake }

// drive starts the first body and waits until the last has ended.
func (m *Machine) drive() {
	if m.finished == nil {
		m.finished = make(chan struct{})
	}
	m.start()
	<-m.finished
}
