//go:build !perturb

package htm

// perturb marks a named crossing of a write protocol; see perturb_on.go.
// Without the perturb build tag it is empty and inlines to nothing.
func perturb(crossing) {}
