// Package main holds the reachability idioms the deadcode checker must
// follow: init functions, package-level initialisers, method values,
// method expressions, function values in tables, interface dispatch on
// used types, and methods the standard library calls through its own
// interfaces.
package main

import (
	"fmt"
	"sort"
)

// registry is a package-level initialiser: the functions it names are
// reached even though no body calls them.
var registry = map[string]func() int{"one": one}

func one() int { return 1 }

var started bool

func init() { started = true }

// Shape is dispatched through in main.
type Shape interface{ Area() float64 }

// Square is used in main; Area is reached through Shape.
type Square struct{ side float64 }

// Area implements Shape.
func (s Square) Area() float64 { return s.side * s.side }

// String is called by fmt through fmt.Stringer.
func (s Square) String() string { return fmt.Sprintf("square(%g)", s.side) }

// bySide is sorted by sort.Sort through sort.Interface.
type bySide []Square

func (b bySide) Len() int           { return len(b) }
func (b bySide) Less(i, j int) bool { return b[i].side < b[j].side }
func (b bySide) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

// Counter's methods are reached as a method value and a method expression.
type Counter struct{ n int }

// Tick is handed to schedule as a bound method value.
func (c *Counter) Tick() { c.n++ }

// Add is reached through the method expression (*Counter).Add.
func (c *Counter) Add(k int) { c.n += k }

func schedule(fn func()) { fn() }

func main() {
	shapes := bySide{{side: 3}, {side: 1}}
	sort.Sort(shapes)
	var s Shape = shapes[0]
	c := &Counter{}
	schedule(c.Tick)
	add := (*Counter).Add
	add(c, registry["one"]())
	fmt.Println(s.Area(), shapes[0], c.n, started)
}
