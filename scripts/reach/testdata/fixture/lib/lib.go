// Package lib holds one function of each kind the reach tool must name.
package lib

// Used is called from main.
func Used() int { return Map([]int{1, 2}, double)[1] }

func double(x int) int { return 2 * x }

// Map is reached only through its instantiation in Used.
func Map[T any](xs []T, f func(T) T) []T {
	out := make([]T, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

// Box is a generic type whose method main calls.
type Box[T any] struct{ v T }

// Get returns the boxed value.
func (b *Box[T]) Get() T { return b.v }

// Name is a value whose method main reaches only through an interface.
type Name struct{ s string }

// NewName returns a Name.
func NewName(s string) Name { return Name{s} }

func (n Name) String() string { return n.s }

// Unreachable is linked by nothing.
func Unreachable() int { return 1 }

// Allowed is linked by nothing but named on the allowlist.
func Allowed() int { return 2 }
