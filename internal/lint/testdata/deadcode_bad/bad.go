// Package main seeds the functions and methods no main or init reaches;
// expected.golden pins the diagnostics.
package main

import "fmt"

// Shape is dispatched through in main.
type Shape interface{ Area() float64 }

// Square is used in main.
type Square struct{ side float64 }

// Area is reached through Shape: Square is used and implements it.
func (s Square) Area() float64 { return s.side * s.side }

// Perimeter matches no interface and nothing calls it: reported.
func (s Square) Perimeter() float64 { return 4 * s.side }

// Circle implements Shape but no reached code uses the type.
type Circle struct{ r float64 }

// Area of an unused type cannot be dispatched to: reported.
func (c Circle) Area() float64 { return 3 * c.r * c.r }

// Counter's Tick is reached only as a method value.
type Counter struct{ n int }

// Tick is handed to schedule, never called directly.
func (c *Counter) Tick() { c.n++ }

func schedule(fn func()) { fn() }

// unused is referenced by nothing: reported.
func unused() int {
	helper()
	return 42
}

// helper is called only from unused, so it is dead too: reported.
func helper() {}

func main() {
	var s Shape = Square{side: 2}
	c := &Counter{}
	schedule(c.Tick)
	fmt.Println(s.Area(), c.n)
}
