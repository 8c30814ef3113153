package main

import (
	"fmt"

	"internal/dead"
)

// source is the interface Stream.Next satisfies.
type source interface{ Next() (int, bool) }

// Helper is an export of package main that nothing calls.
func Helper() {} // want `exported func Helper has no non-test use`

func main() {
	var src source = &dead.Stream{}
	for v, ok := src.Next(); ok; v, ok = src.Next() {
		fmt.Println(v)
	}
	fmt.Println(dead.Counter(dead.Used()))
}
