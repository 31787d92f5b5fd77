// Package lib is the export guard's fixture library.
package lib

// Used is called from cmd/app.
func Used() int { return 1 }

// Unused is called only from a test, so the guard flags it.
func Unused() int { return 2 }

// BenchOnly is called only from bench/.
func BenchOnly() int { return 3 }

// Shape is how cmd/app reaches Square's Area.
type Shape interface {
	Area() float64
}

// Square is a Shape.
type Square struct{ Side float64 }

// Area is called only through Shape.
func (s Square) Area() float64 { return s.Side * s.Side }

// String is called only by fmt.
func (s Square) String() string { return "square" }

// Scale is called from cmd/app.
func (s Square) Scale(k float64) Square { return Square{Side: s.Side * k} }

// Tally shares a method name with Square but is used only by a test.
type Tally struct{ N float64 }

// Scale is called only from a test: Square.Scale's calls do not count.
func (t *Tally) Scale(k float64) { t.N *= k }

// Bag has a Len but is no sort.Interface, so fmt and sort never call it.
type Bag struct{ items []int }

// Len is called only from a test.
func (b Bag) Len() int { return len(b.items) }
