package main

import "fmt"

// checkSelection reports why sel is not a valid batch, or nil if it is.
// A valid batch holds exactly want indices, all distinct, all in [0, n),
// and none of them in taken: rows already labeled, selected by an earlier
// round, or excluded by the caller.
func checkSelection(sel []int, want, n int, taken map[int]bool) error {
	if len(sel) != want {
		return fmt.Errorf("selected %d indices, want %d", len(sel), want)
	}
	seen := make(map[int]bool, len(sel))
	for _, i := range sel {
		switch {
		case i < 0 || i >= n:
			return fmt.Errorf("index %d out of range [0, %d)", i, n)
		case seen[i]:
			return fmt.Errorf("index %d selected twice", i)
		case taken[i]:
			return fmt.Errorf("index %d was already labeled, selected or excluded", i)
		}
		seen[i] = true
	}
	return nil
}
