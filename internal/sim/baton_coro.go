//go:build go1.23

package sim

import "iter"

// The baton as coroutines (package comment): each body runs in a coroutine of
// iter.Pull, and only Run's goroutine resumes one. A body parks by yielding
// back to Run, which then resumes the thread the baton was handed to, so a
// hand-off is two coroutine switches (holder → Run → the thread picked) and
// no trip through the Go scheduler. baton_chan.go is the same four primitives
// over channels, for Go 1.22.

// threadBaton resumes a thread's body (Run's side) and parks it (the body's
// side); both are set when the body is launched.
type threadBaton struct {
	resume func() (struct{}, bool)
	yield  func(struct{}) bool
}

// machineBaton is the thread Run resumes next: nil once nobody is left.
type machineBaton struct {
	next *thread
}

// launch makes t's body a coroutine and hands it the baton. The coroutine
// is always resumed until its body has ended (runBody recovers the body's
// panics), so iter.Pull's stop is never needed.
func (m *Machine) launch(t *thread) {
	t.resume, _ = iter.Pull(func(yield func(struct{}) bool) {
		t.yield = yield
		m.runBody(t)
	})
	m.next = t
}

// hand passes the baton to t, or back to Run for good if t is nil. It takes
// effect when the caller parks or ends.
func (m *Machine) hand(t *thread) { m.next = t }

// park returns to Run until the baton is handed back to t.
func (m *Machine) park(t *thread) { t.yield(struct{}{}) }

// drive starts the first body and resumes whoever holds the baton until
// nobody is left.
func (m *Machine) drive() {
	m.start()
	for t := m.next; t != nil; t = m.next {
		m.next = nil
		t.resume()
	}
}
